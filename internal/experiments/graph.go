package experiments

import (
	"fmt"
	"io"
	"sync"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/orchestrator"
)

// This file runs the sweep grids as orchestrator task graphs:
//
//	realize-dataset → pretrain → train-checkpoint → evaluate   (Table I)
//	realize-dataset → pretrain → evaluate                      (Fig 3, ablations)
//
// Stage canons carry exactly the configuration the stage's computation
// reads (its upstream key covers the rest), so cells that differ only
// downstream — Table-I backends over one dataset, Fig-3 mapping points
// over one pretrained network, ablation variants over one feature split
// — share their prefix stages through content addressing and compute
// them exactly once. Cell bodies build through core.BuildFrom, which
// equals core.Build by construction, so every cell's result is the one
// a standalone core.Build of its options gives, cache hit or miss, at
// any pool width.

func init() {
	// Stage outputs that can spill to a cache directory.
	orchestrator.Register(&dataset.Dataset{})
	orchestrator.Register(&core.Realized{})
	orchestrator.Register(Table1Row{})
	orchestrator.Register(Fig3Point{})
	orchestrator.Register(AblationResult{})
}

// realizeStages adds the two shared prefix stages for the realization
// subset of opts (Normalized first, so defaulted and explicit configs
// key identically) and returns the pretrain stage's key, whose output
// is the *core.Realized every downstream cell builds from.
func realizeStages(g *orchestrator.Graph, opts core.Options) orchestrator.Key {
	opts = opts.Normalized()
	dsKey := g.MustAdd(orchestrator.Task{
		Stage: "realize-dataset",
		Canon: (&orchestrator.Canon{}).
			Int("dataset", int64(opts.Dataset)).
			Int("train_samples", int64(opts.TrainSamples)).
			Int("test_samples", int64(opts.TestSamples)).
			Uint("seed", opts.Seed),
		Run:   func([]any) (any, error) { return core.RealizeDataset(opts), nil },
		Spill: true,
	})
	return g.MustAdd(orchestrator.Task{
		Stage: "pretrain",
		Canon: (&orchestrator.Canon{}).Int("epochs", int64(opts.PretrainEpochs)),
		Deps:  []orchestrator.Key{dsKey},
		Run: func(deps []any) (any, error) {
			return core.PretrainFrom(deps[0].(*dataset.Dataset), opts), nil
		},
		Spill: true,
	})
}

// table1Cell is one (dataset, mode, backend) coordinate of Table I.
type table1Cell struct {
	ds      dataset.Kind
	mode    emstdp.FeedbackMode
	backend core.Backend
}

// table1Cells enumerates Table I in the paper's row order.
func table1Cells() []table1Cell {
	var cells []table1Cell
	for _, ds := range []dataset.Kind{dataset.MNIST, dataset.FashionMNIST, dataset.MSTAR, dataset.CIFAR10} {
		for _, mode := range []emstdp.FeedbackMode{emstdp.FA, emstdp.DFA} {
			for _, backend := range []core.Backend{core.Chip, core.FP} {
				cells = append(cells, table1Cell{ds, mode, backend})
			}
		}
	}
	return cells
}

// table1Options is the cell's full model configuration.
func table1Options(sc Scale, seed uint64, c table1Cell) core.Options {
	return core.Options{
		Dataset:        c.ds,
		Backend:        c.backend,
		Mode:           c.mode,
		TrainSamples:   sc.TrainSamples,
		TestSamples:    sc.TestSamples,
		PretrainEpochs: sc.PretrainEpochs,
		Seed:           seed,
		Trace:          sc.Trace,
	}
}

// cellCanon serialises the training-relevant remainder of a cell's
// options — everything the realization prefix (carried by the upstream
// key) does not already pin.
func cellCanon(opts core.Options, epochs int) *orchestrator.Canon {
	return (&orchestrator.Canon{}).
		Int("backend", int64(opts.Backend)).
		Int("mode", int64(opts.Mode)).
		Ints("hidden", opts.Hidden).
		Int("T", int64(opts.T)).
		Int("epochs", int64(epochs))
}

// Table1 trains every (dataset, mode, backend) combination and returns
// the accuracy grid in the paper's row order. Per dataset one shared
// realize/pretrain prefix feeds its four cells; per cell an ephemeral
// train-checkpoint (released once evaluated) feeds a cached evaluate
// stage. Each cell is a pure function of its options and seed, so the
// grid is deterministic for any pool width and cache state.
func Table1(sc Scale, seed uint64, progress io.Writer) ([]Table1Row, error) {
	cells := table1Cells()
	g := orchestrator.NewGraph()
	var mu sync.Mutex
	keys := make([]orchestrator.Key, len(cells))
	for i, c := range cells {
		c := c
		opts := table1Options(sc, seed, c).Normalized()
		pre := realizeStages(g, opts)
		epochs := sc.Epochs
		trainKey := g.MustAdd(orchestrator.Task{
			Stage: "train-checkpoint",
			Canon: cellCanon(opts, epochs),
			Deps:  []orchestrator.Key{pre},
			Run: func(deps []any) (any, error) {
				m, err := core.BuildFrom(deps[0].(*core.Realized), opts)
				if err != nil {
					return nil, fmt.Errorf("table1 %v/%v/%v: %w", c.ds, c.mode, c.backend, err)
				}
				m.Train(epochs)
				return m, nil
			},
			Ephemeral: true,
			Release:   func(v any) { v.(*core.Model).Close() },
		})
		keys[i] = g.MustAdd(orchestrator.Task{
			Stage: "evaluate",
			Canon: cellCanon(opts, epochs),
			Deps:  []orchestrator.Key{trainKey},
			Run: func(deps []any) (any, error) {
				acc := deps[0].(*core.Model).Evaluate().Accuracy()
				if progress != nil {
					mu.Lock()
					fmt.Fprintf(progress, "table1: %-18s %-3s %-11s %.1f%%\n", c.ds, c.mode, c.backend, acc*100)
					mu.Unlock()
				}
				return Table1Row{Dataset: c.ds, Mode: c.mode, Backend: c.backend, Accuracy: acc}, nil
			},
			Spill: true,
		})
	}
	out, err := orchestrator.Run(g, sc.orchRun())
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(cells))
	for i, k := range keys {
		rows[i] = out[k].(Table1Row)
	}
	return rows, nil
}

// Fig3 sweeps the neurons-per-core packing — and, beyond the paper, the
// die count — for both feedback modes, measuring activity over
// sc.EnergySamples training samples and scaling to the paper's
// 10000-sample training run. Each point's simulated fabric stays
// sequential: its activity counters must come from one deployment
// driving its own samples. Every point shares one realize/pretrain
// prefix (the grid varies only the deployment), so a cold run realizes
// MNIST and pretrains once, and a warm run serves every point from the
// cache. Multi-die cells are bit-identical to their single-die column
// by construction; what the sweep exposes is the added mesh traffic and
// fabric energy of each partition strategy.
func Fig3(sc Scale, seed uint64) ([]Fig3Point, error) {
	grid := fig3Grid(sc)
	g := orchestrator.NewGraph()
	keys := make([]orchestrator.Key, len(grid))
	for i, p := range grid {
		p := p
		opts := fig3Options(sc, seed, p).Normalized()
		pre := realizeStages(g, opts)
		keys[i] = g.MustAdd(orchestrator.Task{
			Stage: "evaluate",
			Canon: (&orchestrator.Canon{}).
				Int("mode", int64(p.mode)).
				Int("chips", int64(p.chips)).
				Int("per_core", int64(p.per)).
				Str("partition", sc.Partition).
				Str("topology", sc.Topology).
				Int("energy_samples", int64(sc.EnergySamples)),
			Deps: []orchestrator.Key{pre},
			Run: func(deps []any) (any, error) {
				m, err := core.BuildFrom(deps[0].(*core.Realized), opts)
				if err != nil {
					return nil, err
				}
				return fig3Measure(m, sc, p), nil
			},
			Spill: true,
		})
	}
	out, err := orchestrator.Run(g, sc.orchRun())
	if err != nil {
		return nil, err
	}
	points := make([]Fig3Point, len(grid))
	for i, k := range keys {
		points[i] = out[k].(Fig3Point)
	}
	return points, nil
}

// Ablations sweeps the paper's design choices on the MNIST task: the h′
// gate, the phase length T (§IV-A2's quality/throughput trade), the
// synaptic weight precision (the source of the paper's Loihi-vs-FP
// accuracy gap) and the feedback mode. Every variant trains a fresh
// reference network on the one realized (read-only) feature split, so
// all variants see identical inputs and no variant builds a model.
func Ablations(sc Scale, seed uint64, progress io.Writer) ([]AblationResult, error) {
	variants := ablationVariants()
	g := orchestrator.NewGraph()
	var mu sync.Mutex
	opts := core.Options{
		Dataset:        dataset.MNIST,
		Backend:        core.FP,
		TrainSamples:   sc.TrainSamples,
		TestSamples:    sc.TestSamples,
		PretrainEpochs: sc.PretrainEpochs,
		Seed:           seed,
	}.Normalized()
	pre := realizeStages(g, opts)
	keys := make([]orchestrator.Key, len(variants))
	for i, v := range variants {
		v := v
		keys[i] = g.MustAdd(orchestrator.Task{
			Stage: "evaluate",
			Canon: (&orchestrator.Canon{}).
				Str("study", v.study).
				Str("value", v.value).
				Int("epochs", int64(sc.Epochs)).
				Uint("seed", seed),
			Deps: []orchestrator.Key{pre},
			Run: func(deps []any) (any, error) {
				r := deps[0].(*core.Realized)
				cfg := ablationBaseConfig(r.Conv.OutSize(), r.DS.NumClasses, seed)
				v.apply(&cfg)
				acc := runVariant(r.TrainFeat, r.TestFeat, cfg, sc.Epochs)
				if progress != nil {
					mu.Lock()
					fmt.Fprintf(progress, "ablation %-12s %-6s %.1f%%\n", v.study, v.value, acc*100)
					mu.Unlock()
				}
				return AblationResult{Study: v.study, Value: v.value, Accuracy: acc}, nil
			},
			Spill: true,
		})
	}
	out, err := orchestrator.Run(g, sc.orchRun())
	if err != nil {
		return nil, err
	}
	results := make([]AblationResult, len(variants))
	for i, k := range keys {
		results[i] = out[k].(AblationResult)
	}
	return results, nil
}
