// Package bench is the benchmark harness that regenerates every table
// and figure of the paper's evaluation, plus ablation benches for its
// design choices. Custom metrics carry the paper's
// reported quantities (accuracy, FPS, watts, mJ/sample) alongside Go's
// timing output:
//
//	go test -bench=Table1 -benchmem        # Table I accuracy cells
//	go test -bench=Table2                  # Table II power/energy rows
//	go test -bench=Fig3                    # Fig 3 trade-off points
//	go test -bench=Fig4                    # Fig 4 incremental learning
//	go test -bench=Ablation                # design-choice ablations
//
// Benches run at a reduced scale; the full-scale numbers regenerate with
// `go run ./cmd/experiments -scale full`.
package bench

import (
	"testing"

	"emstdp/internal/chipnet"
	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/energy"
	"emstdp/internal/experiments"
	"emstdp/internal/incremental"
	"emstdp/internal/loihi"
	"emstdp/internal/rng"
	"emstdp/internal/snn"
)

// buildModel constructs a small-but-meaningful model for benches.
func buildModel(b *testing.B, ds dataset.Kind, backend core.Backend, mode emstdp.FeedbackMode) *core.Model {
	b.Helper()
	m, err := core.Build(core.Options{
		Dataset:        ds,
		Backend:        backend,
		Mode:           mode,
		TrainSamples:   400,
		TestSamples:    150,
		PretrainEpochs: 1,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchTable1 trains one Table I cell and reports its accuracy. The
// benchmark timer covers online training only (the paper's in-hardware
// phase); dataset synthesis and offline conv pretraining are setup.
func benchTable1(b *testing.B, ds dataset.Kind, mode emstdp.FeedbackMode, backend core.Backend) {
	m := buildModel(b, ds, backend, mode)
	feats := m.TrainFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := feats[i%len(feats)]
		m.TrainSample(s.X, s.Y)
	}
	b.StopTimer()
	// One pass over the remaining budget so accuracy is meaningful even
	// at small b.N.
	if b.N < len(feats) {
		for _, s := range feats[b.N%len(feats):] {
			m.TrainSample(s.X, s.Y)
		}
	}
	b.ReportMetric(m.Evaluate().Accuracy()*100, "acc%")
}

func BenchmarkTable1_MNIST_FA_Loihi(b *testing.B) {
	benchTable1(b, dataset.MNIST, emstdp.FA, core.Chip)
}
func BenchmarkTable1_MNIST_DFA_Loihi(b *testing.B) {
	benchTable1(b, dataset.MNIST, emstdp.DFA, core.Chip)
}
func BenchmarkTable1_MNIST_DFA_FP(b *testing.B) { benchTable1(b, dataset.MNIST, emstdp.DFA, core.FP) }
func BenchmarkTable1_Fashion_DFA_Loihi(b *testing.B) {
	benchTable1(b, dataset.FashionMNIST, emstdp.DFA, core.Chip)
}
func BenchmarkTable1_Fashion_DFA_FP(b *testing.B) {
	benchTable1(b, dataset.FashionMNIST, emstdp.DFA, core.FP)
}
func BenchmarkTable1_MSTAR_DFA_Loihi(b *testing.B) {
	benchTable1(b, dataset.MSTAR, emstdp.DFA, core.Chip)
}
func BenchmarkTable1_MSTAR_DFA_FP(b *testing.B) { benchTable1(b, dataset.MSTAR, emstdp.DFA, core.FP) }
func BenchmarkTable1_CIFAR10_DFA_Loihi(b *testing.B) {
	benchTable1(b, dataset.CIFAR10, emstdp.DFA, core.Chip)
}
func BenchmarkTable1_CIFAR10_DFA_FP(b *testing.B) {
	benchTable1(b, dataset.CIFAR10, emstdp.DFA, core.FP)
}

// BenchmarkTable2_LoihiTraining runs b.N full two-phase training samples
// through the chip (conv on chip) and reports the Table II row metrics.
func BenchmarkTable2_LoihiTraining(b *testing.B) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.Chip, ConvOnChip: true,
		TrainSamples: 50, TestSamples: 10, PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	net := m.ChipNetwork()
	net.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.DS.Train[i%len(m.DS.Train)]
		net.TrainSample(s.Image.Data, s.Label)
	}
	b.StopTimer()
	rep := energy.DefaultLoihi().Analyze(net.Counters(), net.CoresUsed(),
		net.MaxPlasticNeuronsPerCore(), b.N, true)
	b.ReportMetric(rep.FPS, "loihi-fps")
	b.ReportMetric(rep.PowerWatts, "loihi-W")
	b.ReportMetric(rep.EnergyPerSampleJ*1e3, "loihi-mJ/img")
}

// BenchmarkTable2_LoihiTesting measures the inference-only deployment.
func BenchmarkTable2_LoihiTesting(b *testing.B) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.Chip, ConvOnChip: true,
		TrainSamples: 20, TestSamples: 50, PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := chipnet.DefaultConfig(m.Conv.OutSize(), 100, 10)
	cfg.InferenceOnly = true
	inf, err := chipnet.NewWithConv(cfg, m.Conv, m.DS.C, m.DS.H, m.DS.W)
	if err != nil {
		b.Fatal(err)
	}
	inf.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.Predict(m.DS.Test[i%len(m.DS.Test)].Image.Data)
	}
	b.StopTimer()
	rep := energy.DefaultLoihi().Analyze(inf.Counters(), inf.CoresUsed(),
		inf.MaxPlasticNeuronsPerCore(), b.N, false)
	b.ReportMetric(rep.FPS, "loihi-fps")
	b.ReportMetric(rep.PowerWatts, "loihi-W")
	b.ReportMetric(rep.EnergyPerSampleJ*1e3, "loihi-mJ/img")
}

// BenchmarkTable2_CPUGPURows evaluates the analytic baseline models (the
// computation itself is trivial; the metrics are the table rows).
func BenchmarkTable2_CPUGPURows(b *testing.B) {
	macs := energy.NetworkMACs(
		energy.ConvMACs(16, 12, 12, 1, 5, 5)+energy.ConvMACs(8, 5, 5, 16, 3, 3),
		[]int{200, 100, 10})
	var last energy.DeviceReport
	for i := 0; i < b.N; i++ {
		last = energy.I78700().Analyze(macs, true)
	}
	b.ReportMetric(last.FPS, "cpu-train-fps")
	b.ReportMetric(last.EnergyPerSampleJ*1e3, "cpu-train-mJ/img")
	gpu := energy.RTX5000().Analyze(macs, true)
	b.ReportMetric(gpu.FPS, "gpu-train-fps")
	b.ReportMetric(gpu.EnergyPerSampleJ*1e3, "gpu-train-mJ/img")
}

// benchFig3 measures one sweep point of Fig 3.
func benchFig3(b *testing.B, mode emstdp.FeedbackMode, perCore int) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.Chip, Mode: mode, ConvOnChip: true,
		NeuronsPerCore: perCore, TrainSamples: 20, TestSamples: 10,
		PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	net := m.ChipNetwork()
	net.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.DS.Train[i%len(m.DS.Train)]
		net.TrainSample(s.Image.Data, s.Label)
	}
	b.StopTimer()
	rep := energy.DefaultLoihi().Analyze(net.Counters(), net.CoresUsed(),
		net.MaxPlasticNeuronsPerCore(), b.N, true)
	b.ReportMetric(float64(rep.CoresUsed), "cores")
	b.ReportMetric(rep.PowerWatts, "loihi-W")
	b.ReportMetric(rep.EnergyPerSampleJ*1e3, "loihi-mJ/img")
}

func BenchmarkFig3_FA_PerCore5(b *testing.B)   { benchFig3(b, emstdp.FA, 5) }
func BenchmarkFig3_FA_PerCore10(b *testing.B)  { benchFig3(b, emstdp.FA, 10) }
func BenchmarkFig3_FA_PerCore30(b *testing.B)  { benchFig3(b, emstdp.FA, 30) }
func BenchmarkFig3_DFA_PerCore5(b *testing.B)  { benchFig3(b, emstdp.DFA, 5) }
func BenchmarkFig3_DFA_PerCore10(b *testing.B) { benchFig3(b, emstdp.DFA, 10) }
func BenchmarkFig3_DFA_PerCore30(b *testing.B) { benchFig3(b, emstdp.DFA, 30) }

// BenchmarkFig4_Incremental runs the paper's incremental protocol once
// per iteration at reduced scale and reports the final observed-class
// accuracy and the drop at the first class introduction.
func BenchmarkFig4_Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := buildModel(b, dataset.MNIST, core.FP, emstdp.DFA)
		cfg := incremental.DefaultConfig(uint64(i + 7))
		b.StartTimer()
		results, err := incremental.Run(m, m.TrainFeatures(), m.TestFeatures(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(results[len(results)-1].AfterStep2*100, "final-acc%")
			b.ReportMetric((results[0].AfterStep2-results[1].AfterStep1)*100, "intro-drop%")
		}
	}
}

// --- Ablation benches (the paper's design choices) ---

// BenchmarkAblationFeedback compares FA and FA-without-gating: the h′
// multi-compartment AND gate is one of the paper's four approximation
// techniques; removing it degrades accuracy.
func benchAblationGate(b *testing.B, gate bool) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.FP, Mode: emstdp.FA,
		TrainSamples: 400, TestSamples: 150, PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := emstdp.DefaultConfig(m.Conv.OutSize(), 100, 10)
	cfg.GateHidden = gate
	cfg.Seed = 4
	net := emstdp.New(cfg)
	feats := m.TrainFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := feats[i%len(feats)]
		net.TrainSample(s.X, s.Y)
	}
	b.StopTimer()
	if b.N < len(feats) {
		for _, s := range feats[b.N%len(feats):] {
			net.TrainSample(s.X, s.Y)
		}
	}
	correct := 0
	for _, s := range m.TestFeatures() {
		if net.Predict(s.X) == s.Y {
			correct++
		}
	}
	b.ReportMetric(100*float64(correct)/float64(len(m.TestFeatures())), "acc%")
}

func BenchmarkAblationGate_On(b *testing.B)  { benchAblationGate(b, true) }
func BenchmarkAblationGate_Off(b *testing.B) { benchAblationGate(b, false) }

// benchAblationPhaseLen measures the quality-vs-throughput knob of
// §IV-A2: shorter phases run faster but quantize rates more coarsely.
func benchAblationPhaseLen(b *testing.B, T int) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.FP, T: T,
		TrainSamples: 400, TestSamples: 150, PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	feats := m.TrainFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := feats[i%len(feats)]
		m.TrainSample(s.X, s.Y)
	}
	b.StopTimer()
	if b.N < len(feats) {
		for _, s := range feats[b.N%len(feats):] {
			m.TrainSample(s.X, s.Y)
		}
	}
	b.ReportMetric(m.Evaluate().Accuracy()*100, "acc%")
}

func BenchmarkAblationPhaseLen_T16(b *testing.B)  { benchAblationPhaseLen(b, 16) }
func BenchmarkAblationPhaseLen_T32(b *testing.B)  { benchAblationPhaseLen(b, 32) }
func BenchmarkAblationPhaseLen_T64(b *testing.B)  { benchAblationPhaseLen(b, 64) }
func BenchmarkAblationPhaseLen_T128(b *testing.B) { benchAblationPhaseLen(b, 128) }

// benchAblationPrecision quantizes the reference network's weights to a
// given bit width after every update (stochastic rounding), isolating
// the cost of Loihi's 8-bit synapses that Table I attributes the
// Loihi-vs-FP gap to.
func benchAblationPrecision(b *testing.B, bits int) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.FP,
		TrainSamples: 400, TestSamples: 150, PretrainEpochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := emstdp.DefaultConfig(m.Conv.OutSize(), 100, 10)
	cfg.QuantBits = bits
	cfg.Seed = 4
	net := emstdp.New(cfg)
	feats := m.TrainFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := feats[i%len(feats)]
		net.TrainSample(s.X, s.Y)
	}
	b.StopTimer()
	if b.N < len(feats) {
		for _, s := range feats[b.N%len(feats):] {
			net.TrainSample(s.X, s.Y)
		}
	}
	correct := 0
	for _, s := range m.TestFeatures() {
		if net.Predict(s.X) == s.Y {
			correct++
		}
	}
	b.ReportMetric(100*float64(correct)/float64(len(m.TestFeatures())), "acc%")
}

func BenchmarkAblationPrecision_4bit(b *testing.B) { benchAblationPrecision(b, 4) }
func BenchmarkAblationPrecision_6bit(b *testing.B) { benchAblationPrecision(b, 6) }
func BenchmarkAblationPrecision_8bit(b *testing.B) { benchAblationPrecision(b, 8) }
func BenchmarkAblationPrecision_Full(b *testing.B) { benchAblationPrecision(b, 0) }

// BenchmarkAblationInputCoding compares the host I/O of §III-D's
// bias-driven input coding against direct per-spike insertion.
func BenchmarkAblationInputCoding(b *testing.B) {
	cfg := chipnet.DefaultConfig(200, 100, 10)
	net, err := chipnet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	x := make([]float64, 200)
	r.FillUniform(x, 0, 1)
	net.ResetCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainSample(x, 3)
	}
	b.StopTimer()
	bias := float64(net.Counters().HostTransactions) / float64(b.N)
	// Direct insertion: one host event per input spike.
	spikes := 0.0
	for _, v := range x {
		spikes += v * float64(cfg.T)
	}
	b.ReportMetric(bias, "bias-host-tx")
	b.ReportMetric(spikes, "direct-host-tx")
}

// --- Engine (worker pool) benchmarks ---

// benchParallelEvaluate measures the engine-sharded test pass at a given
// pool width. Speedup over Workers=1 is the Fig-agnostic headline of the
// execution-engine layer; results are bit-identical across widths.
func benchParallelEvaluate(b *testing.B, workers int) {
	m, err := core.Build(core.Options{
		Dataset: dataset.MNIST, Backend: core.FP,
		TrainSamples: 200, TestSamples: 200, PretrainEpochs: 1,
		Workers: workers, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Train(1)
	m.Evaluate() // build + warm the replicas outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(m.TestFeatures()))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkParallelEvaluate_Workers1(b *testing.B) { benchParallelEvaluate(b, 1) }
func BenchmarkParallelEvaluate_Workers2(b *testing.B) { benchParallelEvaluate(b, 2) }
func BenchmarkParallelEvaluate_Workers4(b *testing.B) { benchParallelEvaluate(b, 4) }

// BenchmarkParallelTable1Grid runs a reduced Table I grid through the
// experiment-level pool (cells sharded across workers).
func BenchmarkParallelTable1Grid(b *testing.B) {
	sc := experiments.Scale{TrainSamples: 60, TestSamples: 30, Epochs: 1,
		PretrainEpochs: 1, EnergySamples: 2, Workers: -1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(sc, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkChipStep measures the simulator's raw step rate on the MNIST
// training netlist.
func BenchmarkChipStep(b *testing.B) {
	cfg := chipnet.DefaultConfig(200, 100, 10)
	net, err := chipnet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	x := make([]float64, 200)
	r.FillUniform(x, 0, 1)
	net.Counts(x) // program biases, warm state
	mesh := net.Mesh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh.Step()
	}
}

// BenchmarkFPTrainSample measures the reference implementation's
// per-sample training cost on the paper's dense topology (the
// production packed kernel).
func BenchmarkFPTrainSample(b *testing.B) {
	benchFPTrainSample(b, snn.KernelPacked)
}

// BenchmarkFPTrainSample_DenseKernel forces the reference dense kernel —
// the ratio against BenchmarkFPTrainSample is the event-driven hot
// path's end-to-end win at real rate-coded activity levels.
func BenchmarkFPTrainSample_DenseKernel(b *testing.B) {
	benchFPTrainSample(b, snn.KernelDense)
}

func benchFPTrainSample(b *testing.B, k snn.Kernel) {
	cfg := emstdp.DefaultConfig(200, 100, 10)
	net := emstdp.New(cfg)
	net.SetKernel(k)
	r := rng.New(1)
	x := make([]float64, 200)
	r.FillUniform(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainSample(x, i%10)
	}
}

// BenchmarkExperimentHarness exercises the full Table 2 harness once per
// iteration at minimum scale (a smoke benchmark for the pipeline).
func BenchmarkExperimentHarness(b *testing.B) {
	sc := experiments.Scale{TrainSamples: 60, TestSamples: 30, Epochs: 1, PretrainEpochs: 1, EnergySamples: 2}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(sc, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoihiSynapticDelivery isolates the hot loop: spike routing
// through a dense synapse group.
func BenchmarkLoihiSynapticDelivery(b *testing.B) {
	mesh, err := loihi.NewMesh(loihi.DefaultHardware(), 1)
	if err != nil {
		b.Fatal(err)
	}
	pre := loihi.NewPopulation("pre", loihi.PopulationConfig{N: 200, Theta: 256, VMin: -256})
	post := loihi.NewPopulation("post", loihi.PopulationConfig{N: 100, Theta: 256, VMin: -256})
	if err := mesh.AddPopulation(pre, 0, 0, pre.N, 0, 100); err != nil {
		b.Fatal(err)
	}
	if err := mesh.AddPopulation(post, 0, 0, post.N, 2, 100); err != nil {
		b.Fatal(err)
	}
	g := loihi.NewSynapseGroup("pp", pre, post, 0)
	if err := mesh.Connect(g); err != nil {
		b.Fatal(err)
	}
	biases := make([]int32, 200)
	for i := range biases {
		biases[i] = 128 // half rate
	}
	pre.SetBiases(biases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh.Step()
	}
}

// BenchmarkAdaptation runs the device-drift recovery experiment (§I's
// motivation for in-hardware learning) once per iteration and reports
// the recovery margin of online learning over a frozen deployment.
func BenchmarkAdaptation(b *testing.B) {
	sc := experiments.Scale{TrainSamples: 300, TestSamples: 100, Epochs: 1, PretrainEpochs: 1}
	var last *experiments.AdaptationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Adaptation(sc, 25, uint64(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AfterDrift*100, "drifted-acc%")
	b.ReportMetric(last.FrozenAfterStream*100, "frozen-acc%")
	b.ReportMetric(last.AdaptedAfterStream*100, "adapted-acc%")
}
