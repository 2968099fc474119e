//go:build !go1.24

package repro

// The module needs Go 1.24 or newer: internal/nn interns packed
// weights through the weak package and runtime.AddCleanup, both new in
// Go 1.24. go.mod keeps its older go line because servebench/go.mod
// requires this module and pins the same line. Below Go 1.24 this file
// is compiled and stops the build with the message below.
var _ = this_module_requires_Go_1_24_or_newer_for_weak_and_runtime_AddCleanup
