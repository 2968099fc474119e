// Command falltrain trains one detector and reports its
// subject-independent cross-validation metrics, optionally saving the
// deployable weights. Data comes from CSV files written by
// cmd/fallgen (falling back to in-process synthesis when none given).
// The saved file is a verified falldet-detector artifact (magic FDMA),
// which falldet.LoadSaved reads back.
//
//	falltrain -model cnn -window 400 -overlap 0.5 -csv worksite.csv -csv kfall.csv -save cnn.fdma
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/falldet"
	"repro/internal/dataset"
)

type csvList []string

func (c *csvList) String() string     { return strings.Join(*c, ",") }
func (c *csvList) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("falltrain: ")
	var csvs csvList
	flag.Var(&csvs, "csv", "dataset CSV (repeatable); omit to synthesise")
	modelName := flag.String("model", "cnn", "cnn | mlp | lstm | convlstm | thr-acc | thr-gyro")
	window := flag.Int("window", 400, "segment size, ms")
	overlap := flag.Float64("overlap", 0.5, "segment overlap fraction")
	epochs := flag.Int("epochs", 40, "max training epochs")
	folds := flag.Int("folds", 3, "cross-validation folds")
	nval := flag.Int("nval", 1, "validation subjects per fold")
	maxNeg := flag.Int("maxneg", 3000, "cap on negative training segments (0 = all)")
	seed := flag.Int64("seed", 1, "random seed")
	save := flag.String("save", "", "write trained weights (network models only)")
	verbose := flag.Bool("v", false, "per-fold progress on stderr")
	flag.Parse()

	kind, err := parseKind(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	var data *falldet.Dataset
	if len(csvs) == 0 {
		fmt.Println("no -csv given; synthesising a 6+6-subject dataset")
		data, err = falldet.Synthesize(falldet.SynthConfig{
			WorksiteSubjects: 6, KFallSubjects: 6, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		data = &falldet.Dataset{}
		for _, path := range csvs {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			d, err := dataset.ReadCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			data.Merge(d)
		}
		data.StandardizeAll()
		data.LowPass()
	}

	cfg := falldet.Config{
		WindowMS:    *window,
		Overlap:     *overlap,
		Epochs:      *epochs,
		Patience:    max(3, *epochs/4),
		MaxTrainNeg: *maxNeg,
		Folds:       *folds,
		ValSubjects: *nval,
		Seed:        *seed,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	res, err := falldet.CrossValidate(data, kind, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s @ %d ms / %.0f%% overlap (%d-fold subject-independent CV)\n",
		kind, *window, 100**overlap, *folds)
	for i, f := range res.Folds {
		fmt.Printf("  fold %d: %v\n", i+1, &f.Confusion)
	}
	fmt.Printf("  pooled: %v\n", &res.Pooled)
	st := falldet.EventAnalysis(res, 0.5)
	fmt.Printf("  events: %.2f%% falls missed, %.2f%% ADL false positives\n",
		st.AllFallMissPct, st.AllADLFPPct)

	if *save != "" {
		det, err := falldet.Train(data, kind, cfg)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		err = det.Save(f)
		// The close error matters on the write path: a full disk can
		// surface only here, and a truncated artifact must not pass as
		// saved.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved deployable weights to %s\n", *save)
	}
}

func parseKind(s string) (falldet.Kind, error) {
	switch strings.ToLower(s) {
	case "cnn":
		return falldet.KindCNN, nil
	case "mlp":
		return falldet.KindMLP, nil
	case "lstm":
		return falldet.KindLSTM, nil
	case "convlstm":
		return falldet.KindConvLSTM, nil
	case "thr-acc":
		return falldet.KindThresholdAcc, nil
	case "thr-gyro":
		return falldet.KindThresholdGyro, nil
	default:
		return 0, fmt.Errorf("unknown model %q", s)
	}
}
