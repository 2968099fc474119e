package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/serve"
)

// expSoak is the serving-runtime chaos soak (DESIGN §11): N concurrent
// synthetic IMU streams multiplexed onto detector cascades through
// internal/serve while the harness injects mid-fall pipeline panics,
// ingress bursts past the ring, 200 ms/sample consumer stalls,
// delivery jitter, and one unrecoverable crash-loop. Acceptance —
// zero missed deadlines on healthy sessions, every injected panic
// recovered by snapshot restore with a bit-identical decision stream,
// stalled sessions demoted to the tier floor, no goroutine leaks,
// bounded heap — is asserted, and the table is written to stdout and
// results_soak.txt. Every table cell is deterministic, so the file is
// byte-stable across runs and machines.
func expSoak(sc scale, seed int64) error {
	sessions, samples := 32, 600
	if sc.name == "paper" {
		sessions, samples = 256, 1200
	}
	rep, err := serve.RunSoak(serve.SoakConfig{
		Sessions:   sessions,
		Samples:    samples,
		Panics:     sessions / 8,
		Seed:       seed,
		Background: serve.SynthBackground(seed, samples),
		Precision:  sc.precision,
	})
	if err != nil {
		return err
	}

	out := sc.resultsName("results_soak")
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := io.MultiWriter(os.Stdout, f)
	fmt.Fprintf(w, "Serving-runtime chaos soak, scale=%s seed=%d workers=%d precision=%s fallvet=%s\n\n",
		sc.name, seed, sc.workers, sc.precision, lint.Stamp())
	rep.WriteTable(w)
	if cerr := f.Close(); cerr != nil {
		return cerr
	}
	if errs := rep.Check(); len(errs) > 0 {
		return fmt.Errorf("soak: %d acceptance criteria failed (see %s)", len(errs), out)
	}
	return nil
}
