// Command fallserve runs the resilient serving runtime's chaos soak:
// N concurrent IMU streams (internal/synth continuous-wear sessions
// with the canonical fall signature spliced in mid-stream)
// multiplexed onto detector cascades while the harness injects
// mid-fall pipeline panics, ingress
// bursts past the ring, 200 ms/sample consumer stalls, delivery
// jitter, and one unrecoverable crash-loop. It prints the per-session
// outcome table and the acceptance verdicts (zero missed deadlines on
// healthy sessions, bit-identical post-restore decision streams, no
// goroutine leaks, bounded heap growth).
//
//	fallserve -sessions 16 -samples 600 -panics 2 -check
//
// With -check the process exits non-zero if any acceptance criterion
// fails, which is how scripts/verify.sh gates CI on it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fallserve: ")
	sessions := flag.Int("sessions", 16, "concurrent streams")
	samples := flag.Int("samples", 600, "raw samples per stream")
	panics := flag.Int("panics", 2, "sessions given a one-shot mid-fall panic")
	seed := flag.Int64("seed", 42, "random seed for stream phases and jitter")
	check := flag.Bool("check", false, "exit non-zero if any acceptance criterion fails")
	verbose := flag.Bool("v", false, "log restart and shed events")
	precision := flag.String("precision", "f64", "compiled scalar width of the session pipelines (f64 or f32)")
	flag.Parse()

	prec, err := tensor.ParsePrecision(*precision)
	if err != nil {
		log.Fatalf("-precision: %v", err)
	}

	cfg := serve.SoakConfig{
		Sessions:   *sessions,
		Samples:    *samples,
		Panics:     *panics,
		Seed:       *seed,
		Precision:  prec,
		Background: serve.SynthBackground(*seed, *samples),
	}
	if *verbose {
		cfg.Log = log.Printf
	}
	rep, err := serve.RunSoak(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep.WriteTable(os.Stdout)
	if *check {
		if errs := rep.Check(); len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "fallserve: %d acceptance criteria failed\n", len(errs))
			os.Exit(1)
		}
	}
}
