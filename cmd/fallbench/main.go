// Command fallbench regenerates every table and figure of the paper's
// evaluation on the synthetic substrate (see DESIGN.md §4 for the
// experiment index):
//
//	fallbench -exp table3            Table III  model × window comparison
//	fallbench -exp table4            Table IV   event-level miss / false-positive analysis
//	fallbench -exp edge              §IV-C      quantization + STM32F722 deployment
//	fallbench -exp fig1              Fig. 1     fall-stage timeline of one trial
//	fallbench -exp pipeline          Fig. 2     end-to-end methodology run
//	fallbench -exp sweep             §III-A     window × overlap design sweep
//	fallbench -exp table1            Table I    threshold baselines vs the CNN
//	fallbench -exp table2            Table II   activity registry + counts
//	fallbench -exp ablation          §III-C     imbalance-countermeasure ablation
//	fallbench -exp kd                extension  PreFallKD-style distillation
//	fallbench -exp session           extension  continuous wear, false alarms/hour
//	fallbench -exp robustness        extension  sensor-fault injection sweep
//	fallbench -exp cascade           extension  supervised detector cascade vs plain pipeline under faults
//	fallbench -exp recovery          extension  crash-safety: checkpoint/resume, artifact chaos
//	fallbench -exp soak              extension  serving-runtime chaos soak: panics, bursts, stalls
//	fallbench -exp all               everything above
//
// -exp also accepts a comma-separated list (e.g. -exp fig1,table3) to
// run several experiments in one invocation over one synthesised
// dataset.
//
// -scale ci (default) runs a reduced cohort in minutes; -scale paper
// runs the faithful 61-subject protocol (hours of CPU). Every
// experiment body runs under the internal/guard runner: panics are
// captured with their stacks, failures retried -retries times with
// backoff, and -timeout bounds each attempt's wall clock.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/falldet"
	"repro/internal/guard"
	"repro/internal/lint"
)

// scale bundles the cohort/training sizes for one preset.
type scale struct {
	name             string
	wsSubjects       int
	kfSubjects       int
	trialsPerTask    int
	longTaskSeconds  float64
	folds, valSubj   int
	epochs, patience int
	maxTrainNeg      int
	verbose          bool
	workers          int
	precision        falldet.Precision
}

// resultsName suffixes a results file with the non-default precision,
// so f32 refreshes sit next to the f64 reference instead of
// overwriting it: results_robustness.txt vs results_robustness_f32.txt.
func (s scale) resultsName(base string) string {
	if s.precision == falldet.PrecisionF64 {
		return base + ".txt"
	}
	return fmt.Sprintf("%s_%s.txt", base, s.precision)
}

func presets(name string) (scale, error) {
	switch name {
	case "ci":
		return scale{
			name: name, wsSubjects: 6, kfSubjects: 6, trialsPerTask: 1,
			longTaskSeconds: 5, folds: 3, valSubj: 1,
			epochs: 12, patience: 6, maxTrainNeg: 3000,
		}, nil
	case "quick":
		return scale{
			name: name, wsSubjects: 6, kfSubjects: 6, trialsPerTask: 1,
			longTaskSeconds: 5, folds: 2, valSubj: 1,
			epochs: 8, patience: 4, maxTrainNeg: 2500,
		}, nil
	case "paper":
		return scale{
			name: name, wsSubjects: 29, kfSubjects: 32, trialsPerTask: 1,
			longTaskSeconds: 30, folds: 5, valSubj: 4,
			epochs: 200, patience: 20, maxTrainNeg: 0,
		}, nil
	default:
		return scale{}, fmt.Errorf("unknown scale %q (want quick, ci or paper)", name)
	}
}

func (s scale) synth(seed int64) falldet.SynthConfig {
	return falldet.SynthConfig{
		WorksiteSubjects: s.wsSubjects,
		KFallSubjects:    s.kfSubjects,
		TrialsPerTask:    s.trialsPerTask,
		LongTaskSeconds:  s.longTaskSeconds,
		Seed:             seed,
	}
}

func (s scale) config(windowMS int, overlap float64, seed int64) falldet.Config {
	cfg := falldet.Config{
		WindowMS:    windowMS,
		Overlap:     overlap,
		Epochs:      s.epochs,
		Patience:    s.patience,
		MaxTrainNeg: s.maxTrainNeg,
		Folds:       s.folds,
		ValSubjects: s.valSubj,
		Seed:        seed,
		Workers:     s.workers,
	}
	if s.verbose {
		cfg.Log = os.Stderr
	}
	return cfg
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fallbench: ")
	known := []string{"fig1", "table1", "table2", "table3", "table4", "sweep",
		"ablation", "edge", "kd", "session", "robustness", "cascade", "recovery", "soak", "pipeline"}
	exp := flag.String("exp", "all", "experiment id or comma-separated list: "+strings.Join(known, ", ")+", all")
	scaleName := flag.String("scale", "ci", "cohort/training scale: quick, ci or paper")
	seed := flag.Int64("seed", 1, "master random seed")
	verbose := flag.Bool("v", false, "stream per-fold progress to stderr")
	retries := flag.Int("retries", 1, "attempts per experiment (panics and errors are retried)")
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog per experiment attempt (0 = off)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"data-parallel workers for training, folds and sweeps (results are bit-identical for any value)")
	precisionName := flag.String("precision", "f64",
		"streaming-pipeline scalar width for the robustness/cascade sweeps and the soak (f64 or f32); training always runs f64")
	flag.Parse()

	sc, err := presets(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	sc.verbose = *verbose
	sc.workers = *workers
	if sc.precision, err = falldet.ParsePrecision(*precisionName); err != nil {
		log.Fatal(err)
	}
	if sc.workers < 1 {
		sc.workers = 1
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, k := range known {
				want[k] = true
			}
			continue
		}
		ok := false
		for _, k := range known {
			ok = ok || k == name
		}
		if !ok {
			log.Fatalf("unknown experiment %q", name)
		}
		want[name] = true
	}

	fmt.Printf("== fallbench scale=%s seed=%d workers=%d precision=%s fallvet=%s ==\n", sc.name, *seed, sc.workers, sc.precision, lint.Stamp())
	fmt.Printf("synthesising %d worksite + %d kfall subjects...\n\n", sc.wsSubjects, sc.kfSubjects)
	data, err := falldet.Synthesize(sc.synth(*seed))
	if err != nil {
		log.Fatal(err)
	}
	st := data.ComputeStats()
	fmt.Printf("dataset: %d trials (%d falls / %d ADLs), %d subjects, %.1f min of data\n",
		st.Trials, st.Falls, st.ADLs, st.Subjects, float64(st.Samples)/100/60)
	fmt.Printf("fall duration: mean %.0f ms, shortest %.0f ms\n\n",
		st.FallDurationMeanMS, st.FallDurationShortest)

	gcfg := guard.Config{
		Attempts:  *retries,
		BaseDelay: time.Second,
		MaxDelay:  30 * time.Second,
		Timeout:   *timeout,
		Log:       log.Printf,
	}
	run := func(name string, fn func() error) {
		if !want[name] {
			return
		}
		fmt.Printf("---- %s ----\n", name)
		if err := guard.Run(gcfg, name, fn); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("fig1", func() error { return expFig1(*seed) })
	run("table2", func() error { return expTable2() })
	run("table1", func() error { return expTable1(data, sc, *seed) })
	run("table3", func() error { return expTable3(data, sc, *seed) })
	run("table4", func() error { return expTable4(data, sc, *seed) })
	run("sweep", func() error { return expSweep(data, sc, *seed) })
	run("ablation", func() error { return expAblation(data, sc, *seed) })
	run("edge", func() error { return expEdge(data, sc, *seed) })
	run("kd", func() error { return expKD(data, sc, *seed) })
	run("session", func() error { return expSession(data, sc, *seed) })
	run("robustness", func() error { return expRobustness(data, sc, *seed) })
	run("cascade", func() error { return expCascade(data, sc, *seed) })
	run("recovery", func() error { return expRecovery(data, sc, *seed) })
	run("soak", func() error { return expSoak(sc, *seed) })
	run("pipeline", func() error { return expPipeline(data, sc, *seed) })
}
