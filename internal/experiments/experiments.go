// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): Table I (accuracy), Table II (power and energy),
// Fig 3 (the neurons-per-core mapping trade-off) and Fig 4 (incremental
// online learning). Each experiment returns structured results and can
// print them in the paper's layout; cmd/experiments and the root
// benchmark suite are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"

	"emstdp/internal/chipnet"
	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/energy"
	"emstdp/internal/engine"
	"emstdp/internal/incremental"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/metrics"
	"emstdp/internal/orchestrator"
	"emstdp/internal/trace"
)

// Scale sizes an experiment run. Quick keeps unit-test and bench
// runtimes modest; Full approaches the paper's sample counts.
type Scale struct {
	TrainSamples   int
	TestSamples    int
	Epochs         int
	PretrainEpochs int
	// EnergySamples is the number of training/testing samples simulated
	// to collect activity counters for Table II / Fig 3.
	EnergySamples int
	// Workers is the engine pool width the sweep grids (Table I, Fig 3,
	// ablations) run their orchestrator stages on, one stage per worker
	// at a time (each stage's model stays sequential — two nested levels
	// of parallelism would just oversubscribe the cores). 0 or 1 runs
	// sequentially; negative selects GOMAXPROCS. Results are
	// independent of the width.
	Workers int
	// Batch is the training mini-batch size forwarded to core.Options:
	// 1 (default) is the paper's online protocol, larger values trade
	// protocol fidelity for replica parallelism inside each cell.
	Batch int
	// Pipeline is the two-phase training pipeline depth forwarded to
	// core.Options: 0/1 trains strictly online, D >= 2 keeps D samples
	// in flight per cell at an update lag of exactly D-1 (bounded-lag
	// batch-1 — see core.Options.Pipeline).
	Pipeline int
	// Chips lists the die counts the Fig-3 grid sweeps (nil or empty =
	// {1}, the paper's single-die study). Multi-die cells shard the
	// netlist across a lock-step mesh and report inter-die traffic.
	Chips []int
	// Partition names the sharding strategy for multi-die grid cells
	// ("population", "range" or "traffic"; "" = population).
	Partition string
	// Topology names the NoC arrangement of multi-die grid cells
	// ("line", "mesh" or "torus"; "" = line). Changes the traffic and
	// latency columns only — cell results are topology-invariant.
	Topology string
	// PerCore lists the neurons-per-core packings Fig 3 sweeps (nil =
	// the paper's 5,10,…,30).
	PerCore []int
	// Cache is the stage cache the sweep grids share; nil runs each
	// grid without one (stages shared within the grid still compute
	// once). Reusing one cache across calls is what makes a warm rerun
	// compute nothing.
	Cache *orchestrator.Cache
	// Counters, if set, receives the orchestrator's observability
	// counters.
	Counters *metrics.Counters
	// Trace, if set, records the sweep's timeline: orchestrator stage
	// spans on the pool workers' tracks plus every per-cell model's
	// engine/stream/mesh tracks (forwarded through core.Options.Trace).
	// Excluded from stage canonicalisation — attaching a tracer never
	// invalidates a warm cache — and purely observational: results are
	// bit-identical with and without it.
	Trace *trace.Tracer
}

// orchRun assembles the orchestrator configuration for a grid run.
func (sc Scale) orchRun() orchestrator.Config {
	workers := sc.Workers
	if workers == 0 {
		workers = 1 // engine.NewPool(0) would select GOMAXPROCS
	}
	return orchestrator.Config{
		Pool:     engine.NewPool(workers),
		Cache:    sc.Cache,
		Counters: sc.Counters,
		Tracer:   sc.Trace,
	}
}

// fig3Chips returns the die counts the grid sweeps.
func (sc Scale) fig3Chips() []int {
	if len(sc.Chips) == 0 {
		return []int{1}
	}
	return sc.Chips
}

// fig3PerCore returns the packings the grid sweeps.
func (sc Scale) fig3PerCore() []int {
	if len(sc.PerCore) == 0 {
		return []int{5, 10, 15, 20, 25, 30}
	}
	return sc.PerCore
}

// QuickScale returns a minutes-scale configuration.
func QuickScale() Scale {
	return Scale{TrainSamples: 600, TestSamples: 200, Epochs: 1, PretrainEpochs: 2, EnergySamples: 20}
}

// FullScale returns the paper-scale configuration (-scale full).
func FullScale() Scale {
	return Scale{TrainSamples: 2000, TestSamples: 500, Epochs: 2, PretrainEpochs: 3, EnergySamples: 50}
}

// Table1Row is one cell group of Table I.
type Table1Row struct {
	Dataset  dataset.Kind
	Mode     emstdp.FeedbackMode
	Backend  core.Backend
	Accuracy float64
}

// PrintTable1 renders rows in the paper's Table I layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	get := func(ds dataset.Kind, mode emstdp.FeedbackMode, b core.Backend) float64 {
		for _, r := range rows {
			if r.Dataset == ds && r.Mode == mode && r.Backend == b {
				return r.Accuracy
			}
		}
		return -1
	}
	fmt.Fprintln(w, "TABLE I: Performance")
	fmt.Fprintf(w, "%-20s | %8s %12s | %8s %12s\n", "", "Loihi", "Python (FP)", "Loihi", "Python (FP)")
	fmt.Fprintf(w, "%-20s | %22s | %22s\n", "", "FA", "DFA")
	fmt.Fprintln(w, "---------------------+------------------------+-----------------------")
	for _, ds := range []dataset.Kind{dataset.MNIST, dataset.FashionMNIST, dataset.MSTAR, dataset.CIFAR10} {
		fmt.Fprintf(w, "%-20s | %7.1f%% %11.1f%% | %7.1f%% %11.1f%%\n", ds,
			get(ds, emstdp.FA, core.Chip)*100, get(ds, emstdp.FA, core.FP)*100,
			get(ds, emstdp.DFA, core.Chip)*100, get(ds, emstdp.DFA, core.FP)*100)
	}
}

// Table2Row is one platform row of Table II for one mode.
type Table2Row struct {
	Platform string
	Train    energy.DeviceReport
	Test     energy.DeviceReport
}

// Table2 measures the chip's activity on the MNIST network and evaluates
// the platform models. The Loihi rows come from simulator counters
// (training deployment and a separate inference-only deployment, as the
// paper does); the CPU/GPU rows come from the analytic batch-1 models on
// the same network's MAC count.
func Table2(sc Scale, seed uint64) ([]Table2Row, error) {
	m, err := core.Build(core.Options{
		Dataset:        dataset.MNIST,
		Backend:        core.Chip,
		ConvOnChip:     true,
		TrainSamples:   maxInt(sc.EnergySamples, 10),
		TestSamples:    maxInt(sc.EnergySamples, 10),
		PretrainEpochs: 1,
		Seed:           seed,
		Trace:          sc.Trace,
	})
	if err != nil {
		return nil, err
	}
	net := m.ChipNetwork()

	model := energy.DefaultLoihi()

	// Training measurement.
	net.ResetCounters()
	for i := 0; i < sc.EnergySamples; i++ {
		s := m.DS.Train[i%len(m.DS.Train)]
		net.TrainSample(s.Image.Data, s.Label)
	}
	trainRep := model.Analyze(net.Counters(), net.CoresUsed(), net.MaxPlasticNeuronsPerCore(), sc.EnergySamples, true)

	// Inference-only deployment (backward paths not implemented, §IV-A2).
	infCfg := chipnet.DefaultConfig(append([]int{m.Conv.OutSize()}, 100, m.DS.NumClasses)...)
	infCfg.InferenceOnly = true
	infCfg.Seed = seed + 3
	inf, err := chipnet.NewWithConv(infCfg, m.Conv, m.DS.C, m.DS.H, m.DS.W)
	if err != nil {
		return nil, err
	}
	inf.ResetCounters()
	for i := 0; i < sc.EnergySamples; i++ {
		inf.Predict(m.DS.Test[i%len(m.DS.Test)].Image.Data)
	}
	testRep := model.Analyze(inf.Counters(), inf.CoresUsed(), inf.MaxPlasticNeuronsPerCore(), sc.EnergySamples, false)

	macs := energy.NetworkMACs(
		energy.ConvMACs(16, m.Conv.Conv1.OutH, m.Conv.Conv1.OutW, m.DS.C, 5, 5)+
			energy.ConvMACs(8, m.Conv.Conv2.OutH, m.Conv.Conv2.OutW, 16, 3, 3),
		[]int{m.Conv.OutSize(), 100, m.DS.NumClasses})

	rows := make([]Table2Row, 0, 3)
	for _, dev := range []energy.Device{energy.I78700(), energy.RTX5000()} {
		rows = append(rows, Table2Row{
			Platform: dev.Name,
			Train:    dev.Analyze(macs, true),
			Test:     dev.Analyze(macs, false),
		})
	}
	rows = append(rows, Table2Row{
		Platform: "Loihi",
		Train: energy.DeviceReport{
			Name: "Loihi", FPS: trainRep.FPS, PowerWatts: trainRep.PowerWatts,
			EnergyPerSampleJ: trainRep.EnergyPerSampleJ,
		},
		Test: energy.DeviceReport{
			Name: "Loihi", FPS: testRep.FPS, PowerWatts: testRep.PowerWatts,
			EnergyPerSampleJ: testRep.EnergyPerSampleJ,
		},
	})
	return rows, nil
}

// PrintTable2 renders rows in the paper's Table II layout.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "TABLE II: Power and Energy")
	fmt.Fprintf(w, "%-10s | %8s %9s %14s | %8s %9s %14s\n",
		"", "FPS", "Power(W)", "Energy(mJ/img)", "FPS", "Power(W)", "Energy(mJ/img)")
	fmt.Fprintf(w, "%-10s | %33s | %33s\n", "", "Training", "Testing")
	fmt.Fprintln(w, "-----------+-----------------------------------+----------------------------------")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %8.0f %9.2f %14.2f | %8.0f %9.2f %14.2f\n",
			r.Platform,
			r.Train.FPS, r.Train.PowerWatts, r.Train.EnergyPerSampleJ*1e3,
			r.Test.FPS, r.Test.PowerWatts, r.Test.EnergyPerSampleJ*1e3)
	}
}

// Fig3Point is one x-position of Fig 3 for one feedback mode, die count
// and packing.
type Fig3Point struct {
	Mode            emstdp.FeedbackMode
	Chips           int
	Partition       string
	Topology        string
	NeuronsPerCore  int
	Cores           int
	TimeFor10k      float64 // seconds to train 10000 samples
	PowerWatts      float64
	EnergyPerSample float64 // J
	// Inter-die traffic of the measured region (zero on one die):
	// messages, routed link traversals and modeled congestion stalls.
	MeshSpikes, MeshHops, MeshStalls int64
	// MeshEnergyPerSample is the fabric's share of EnergyPerSample (J).
	MeshEnergyPerSample float64
}

// fig3PointSpec is one grid coordinate of the Fig-3 sweep.
type fig3PointSpec struct {
	mode  emstdp.FeedbackMode
	chips int
	per   int
}

// fig3Grid enumerates the sweep coordinates in the committed row order.
func fig3Grid(sc Scale) []fig3PointSpec {
	var grid []fig3PointSpec
	for _, mode := range []emstdp.FeedbackMode{emstdp.FA, emstdp.DFA} {
		for _, chips := range sc.fig3Chips() {
			for _, per := range sc.fig3PerCore() {
				grid = append(grid, fig3PointSpec{mode, chips, per})
			}
		}
	}
	return grid
}

// fig3Options is the cell's full model configuration.
func fig3Options(sc Scale, seed uint64, p fig3PointSpec) core.Options {
	return core.Options{
		Dataset:           dataset.MNIST,
		Backend:           core.Chip,
		Mode:              p.mode,
		ConvOnChip:        true,
		NeuronsPerCore:    p.per,
		Chips:             p.chips,
		PartitionStrategy: sc.Partition,
		Topology:          sc.Topology,
		TrainSamples:      maxInt(sc.EnergySamples, 10),
		TestSamples:       10,
		PretrainEpochs:    1,
		Seed:              seed,
		Trace:             sc.Trace,
	}
}

// fig3Measure drives sc.EnergySamples training samples through the
// cell's deployment and reduces the activity counters to a Fig3Point.
func fig3Measure(m *core.Model, sc Scale, p fig3PointSpec) Fig3Point {
	model := energy.DefaultLoihi()
	net := m.ChipNetwork()
	net.ResetCounters()
	for j := 0; j < sc.EnergySamples; j++ {
		s := m.DS.Train[j%len(m.DS.Train)]
		net.TrainSample(s.Image.Data, s.Label)
	}
	traffic := net.Mesh().Traffic()
	rep := model.AnalyzeMesh(net.Counters(), traffic, net.CoresUsed(), net.MaxPlasticNeuronsPerCore(), sc.EnergySamples, true)
	strategy, _ := mapping.ParseStrategy(sc.Partition)
	kind, _ := loihi.ParseTopologyKind(sc.Topology)
	return Fig3Point{
		Mode:                p.mode,
		Chips:               p.chips,
		Partition:           strategy.String(),
		Topology:            kind.String(),
		NeuronsPerCore:      p.per,
		Cores:               rep.CoresUsed,
		TimeFor10k:          rep.TimeSeconds / float64(sc.EnergySamples) * 10000,
		PowerWatts:          rep.PowerWatts,
		EnergyPerSample:     rep.EnergyPerSampleJ,
		MeshSpikes:          traffic.CrossDieSpikes,
		MeshHops:            traffic.SpikeHops,
		MeshStalls:          traffic.StallCycles,
		MeshEnergyPerSample: rep.MeshEnergyJ / float64(maxInt(sc.EnergySamples, 1)),
	}
}

// PrintFig3 renders the sweep as the series plotted in Fig 3, extended
// with the die count and mesh traffic columns.
func PrintFig3(w io.Writer, points []Fig3Point) {
	fmt.Fprintln(w, "FIG 3: neurons/core trade-off (training, 10000 samples)")
	fmt.Fprintf(w, "%-4s %-5s %-8s | %8s %12s %12s %18s %12s %14s\n",
		"mode", "dies", "n/core", "cores", "time (s)", "power (W)", "energy (mJ/sample)", "mesh spikes", "mesh (mJ/sam)")
	fmt.Fprintln(w, "--------------------+---------------------------------------------------------------------------------")
	for _, p := range points {
		fmt.Fprintf(w, "%-4s %-5d %-8d | %8d %12.0f %12.3f %18.2f %12d %14.3f\n",
			p.Mode, p.Chips, p.NeuronsPerCore, p.Cores, p.TimeFor10k, p.PowerWatts,
			p.EnergyPerSample*1e3, p.MeshSpikes, p.MeshEnergyPerSample*1e3)
	}
}

// Fig3CSVHeader is the stable machine-readable schema of the Fig-3
// grid. The golden-file test pins it: changing, reordering or removing
// a column is a deliberate, test-visible act.
const Fig3CSVHeader = "mode,chips,partition,topology,neurons_per_core,cores,time_s_per_10k,power_w,energy_mj_per_sample,mesh_spikes,mesh_hops,mesh_stall_cycles,mesh_energy_mj_per_sample"

// WriteFig3CSV emits the sweep in the committed CSV schema.
func WriteFig3CSV(w io.Writer, points []Fig3Point) error {
	if _, err := fmt.Fprintln(w, Fig3CSVHeader); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%d,%d,%.6g,%.6g,%.6g,%d,%d,%d,%.6g\n",
			p.Mode, p.Chips, p.Partition, p.Topology, p.NeuronsPerCore, p.Cores,
			p.TimeFor10k, p.PowerWatts, p.EnergyPerSample*1e3,
			p.MeshSpikes, p.MeshHops, p.MeshStalls, p.MeshEnergyPerSample*1e3); err != nil {
			return err
		}
	}
	return nil
}

// Fig4Result carries the incremental-online-learning series plus the
// jointly-trained baseline.
type Fig4Result struct {
	Rounds   []incremental.RoundResult
	Baseline float64
}

// Fig4 runs the paper's incremental protocol on the MNIST task with the
// FP backend (the paper demonstrates on the same network used in §IV-A).
func Fig4(sc Scale, seed uint64) (*Fig4Result, error) {
	build := func() (*core.Model, error) {
		return core.Build(core.Options{
			Dataset:        dataset.MNIST,
			Backend:        core.FP,
			TrainSamples:   sc.TrainSamples,
			TestSamples:    sc.TestSamples,
			PretrainEpochs: sc.PretrainEpochs,
			Seed:           seed,
			Trace:          sc.Trace,
		})
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	cfg := incremental.DefaultConfig(seed + 10)
	cfg.PretrainEpochs = sc.Epochs + 1
	rounds, err := incremental.Run(m, m.TrainFeatures(), m.TestFeatures(), cfg)
	if err != nil {
		return nil, err
	}

	base, err := build()
	if err != nil {
		return nil, err
	}
	baseline := incremental.Baseline(base, base.TrainFeatures(), base.TestFeatures(),
		base.DS.NumClasses, sc.Epochs+1, seed+11)

	return &Fig4Result{Rounds: rounds, Baseline: baseline}, nil
}

// PrintFig4 renders the round series of Fig 4.
func PrintFig4(w io.Writer, res *Fig4Result) {
	fmt.Fprintln(w, "FIG 4: Incremental Online Learning (MNIST)")
	fmt.Fprintf(w, "baseline (joint training): %.1f%%\n", res.Baseline*100)
	fmt.Fprintf(w, "%-6s %-9s %-12s %-12s %s\n", "round", "new?", "after step1", "after step2", "observed classes")
	for _, r := range res.Rounds {
		mark := ""
		if r.NewClassesIntroduced {
			mark = "  <- +2 classes"
		}
		fmt.Fprintf(w, "%-6d %-9v %11.1f%% %11.1f%% %d%s\n",
			r.Round, r.NewClassesIntroduced, r.AfterStep1*100, r.AfterStep2*100, len(r.Observed), mark)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
