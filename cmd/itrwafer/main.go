// Command itrwafer demonstrates wafer-map defect classification: it
// generates a labeled dataset, trains the HDC classifier and the classical
// baselines, reports accuracy, and can render individual maps as ASCII art.
//
// Usage:
//
//	itrwafer                      # train + evaluate all classifiers
//	itrwafer -show Scratch        # print an example map of one class
//	itrwafer -dim 8192 -train 80  # bigger hypervectors / training set
//	itrwafer -export model.itm    # train and save an itr-model/v3 artifact
//	itrwafer -import model.itm    # evaluate a saved artifact
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wafer"
	"repro/internal/yieldmodel"
)

func main() {
	var (
		show    = flag.String("show", "", "render one example map of a class and exit")
		dim     = flag.Int("dim", 4096, "hypervector dimension")
		trainN  = flag.Int("train", 40, "training maps per class")
		testN   = flag.Int("test", 20, "test maps per class")
		size    = flag.Int("size", 64, "wafer grid size")
		seed    = flag.Int64("seed", 1, "random seed")
		export  = flag.String("export", "", "train the HDC classifier and write it as an itr-model/v3 artifact")
		imprt   = flag.String("import", "", "load a saved artifact and evaluate it instead of training")
		version = flag.Int("version", 1, "artifact version written by -export")
	)
	flag.Parse()

	cfg := wafer.DefaultConfig()
	cfg.Size = *size

	if *show != "" {
		class, ok := classByName(*show)
		if !ok {
			fatal(fmt.Errorf("unknown class %q", *show))
		}
		m := wafer.Generate(class, cfg, rand.New(rand.NewSource(*seed)))
		render(m)
		return
	}

	if *export != "" {
		if err := exportModel(*export, cfg, *dim, *trainN, *seed, *version); err != nil {
			fatal(err)
		}
		return
	}
	if *imprt != "" {
		if err := importModel(*imprt, cfg, *testN, *seed); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("generating %d train / %d test maps per class (%d classes, %dx%d)\n",
		*trainN, *testN, wafer.NumClasses, *size, *size)
	train := wafer.GenerateDataset(*trainN, cfg, *seed)
	test := wafer.GenerateDataset(*testN, cfg, *seed+1)

	// Lot-level yield statistics over the generated wafers.
	if stats, err := yieldmodel.Estimate(train.Maps); err == nil {
		fmt.Printf("lot yield %.1f%%, mean fails/wafer %.0f", stats.Yield*100, stats.MeanFails)
		if stats.Clustered {
			fmt.Printf(", clustered defects (alpha %.2f)", stats.Alpha)
		}
		if d0, err := yieldmodel.FitD0(yieldmodel.Poisson, stats.Yield, 0); err == nil {
			fmt.Printf(", Poisson-equivalent D0 %.3f/die", d0)
		}
		fmt.Println()
	}

	results, err := core.EvaluateWaferClassifiers(train, test, *dim, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s %9s %9s %12s %12s\n", "model", "accuracy", "macro-F1", "train", "infer/map")
	for _, r := range results {
		fmt.Printf("%-12s %8.1f%% %9.3f %12v %12v\n",
			r.Name, r.Accuracy*100, r.MacroF1, r.TrainTime.Round(1e6), r.InferPer.Round(1e3))
	}

	// Confusion matrix of the HDC model.
	fmt.Println("\nHDC confusion matrix (rows = truth):")
	fmt.Printf("%-10s", "")
	for c := wafer.Class(0); c < wafer.NumClasses; c++ {
		fmt.Printf("%6.6s", c.String())
	}
	fmt.Println()
	for a, row := range results[0].Confusion {
		fmt.Printf("%-10s", wafer.Class(a).String())
		for _, v := range row {
			fmt.Printf("%6d", v)
		}
		fmt.Println()
	}
}

// exportModel trains the HDC classifier on a generated dataset and writes
// it as a versioned itr-model/v3 artifact — the input of itrserve's model
// registry (which scans *.itm files). The format does not depend on the
// file extension.
func exportModel(path string, cfg wafer.Config, dim, trainN int, seed int64, version int) error {
	fmt.Printf("training HDC-d%d on %d maps/class (%dx%d, seed %d)\n",
		dim, trainN, cfg.Size, cfg.Size, seed)
	train := wafer.GenerateDataset(trainN, cfg, seed)
	cls := core.NewHDCWaferClassifier(dim, cfg.Size, 20, seed)
	if err := cls.Fit(train); err != nil {
		return err
	}
	payload, err := cls.AppendBinary(nil)
	if err != nil {
		return err
	}
	a, err := serve.NewArtifact(serve.KindWaferHDC, "itrwafer-hdc", version, payload)
	if err != nil {
		return err
	}
	a.CreatedUnix = time.Now().Unix()
	if err := a.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s artifact v%d (%s) to %s, hash %s\n",
		a.Kind, a.Version, serve.Schema, path, a.Hash)
	return nil
}

// importModel loads a saved wafer-classifier artifact and evaluates it on a
// freshly generated test set.
func importModel(path string, cfg wafer.Config, testN int, seed int64) error {
	a, err := serve.ReadArtifact(path)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	if _, err := reg.Install(a); err != nil {
		return err
	}
	model := reg.Wafer()
	if model == nil {
		return fmt.Errorf("artifact %s is %q, not a wafer classifier", path, a.Kind)
	}
	cls := model.Cls
	if gs := cls.GridSize(); gs != cfg.Size {
		fmt.Printf("note: model grid %dx%d overrides -size %d\n", gs, gs, cfg.Size)
		cfg.Size = gs
	}
	fmt.Printf("loaded %s %q v%d (dim %d, grid %dx%d)\n",
		a.Kind, a.Name, a.Version, cls.Dim, cfg.Size, cfg.Size)
	test := wafer.GenerateDataset(testN, cfg, seed+1)
	correct := 0
	for i, m := range test.Maps {
		if cls.Predict(m) == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("accuracy %.1f%% on %d generated test maps\n",
		100*float64(correct)/float64(len(test.Maps)), len(test.Maps))
	return nil
}

func classByName(name string) (wafer.Class, bool) {
	for c := wafer.Class(0); c < wafer.NumClasses; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

func render(m *wafer.Map) {
	fmt.Printf("class: %v, fail fraction %.1f%%\n", m.Label, m.FailFraction()*100)
	for r := 0; r < m.Size; r++ {
		for c := 0; c < m.Size; c++ {
			switch m.At(r, c) {
			case wafer.OffDie:
				fmt.Print(" ")
			case wafer.Pass:
				fmt.Print(".")
			default:
				fmt.Print("X")
			}
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itrwafer:", err)
	os.Exit(1)
}
