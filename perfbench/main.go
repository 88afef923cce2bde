// Command perfbench is the repository's end-to-end benchmark. One run
// drives three phases in turn, each alone on the host:
//
//   - fp_online: the paper's batch-1 online training on the FP backend,
//     then repeated test-split evaluation on the engine's worker pool;
//   - chip_mesh: online training on the simulated chip, four dies on a
//     2×2 mesh, with modelled energy and time from the activity counters;
//   - serve_mixed: one tenant of the serving layer, driven in-process
//     through its HTTP handler by closed-loop classify callers while a
//     train caller fine-tunes it.
//
// The workload picks the dataset; the seed picks the order in which the
// test split is evaluated and which vectors each classify request
// carries, none of which may change a result. Every run checks exact
// work fingerprints. Usage (from the checkout root):
//
//	bash perfbench/run.sh --workload mnist --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the JSON result; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones from a
// separately traced run. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/trace"
)

// modelSeed fixes every workload's dataset, pretraining and initial
// weights, so accuracy and the simulated counts repeat exactly across
// runs; the run's --seed only reorders inputs.
const modelSeed = 1

// config sizes one workload.
type config struct {
	dataset dataset.Kind
	// train and test size the generated splits; pretrainEpochs the
	// offline conv pretraining.
	train, test, pretrainEpochs int
	// chipTrain is the number of samples one chip training round
	// trains, in the split's order.
	chipTrain int
	// serveTrains is the number of labelled samples the serve train
	// caller posts, one per request, spread over the serve slices.
	serveTrains int
	// callers closed-loop classify callers each send vectors feature
	// vectors per request.
	callers, vectors int
	// golden pins the exact fingerprint of this configuration; nil
	// skips the pinned comparison (the round-to-round and cross-path
	// checks always run).
	golden *fingerprint
}

// workloads are the benchmark's inputs: the same network on an easy
// task with heavier spike traffic (MNIST) and on a harder task whose
// conv features drive about 30% fewer spikes (Fashion-MNIST), so costs
// that scale with spikes move differently from per-step costs.
var workloads = map[string]config{
	"mnist":   standard(dataset.MNIST, goldenMNIST),
	"fashion": standard(dataset.FashionMNIST, goldenFashion),
}

func standard(kind dataset.Kind, golden *fingerprint) config {
	return config{
		dataset: kind, train: 1000, test: 500, pretrainEpochs: 1,
		chipTrain: 100, serveTrains: 200,
		callers: 2, vectors: 8, golden: golden,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input-order seed")
	seconds := fs.Float64("seconds", 45, "measured time of the whole run, split across the phases")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b := newBench(cfg, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	b.log = stderr
	res, h, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", h)
	for _, m := range res.mismatches {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", m)
	}
	defs := endToEnd
	if b.traced {
		// The end-to-end figures of a traced run are not reported, but
		// against an untraced run they show what tracing costs.
		for _, d := range endToEnd {
			fmt.Fprintf(stderr, "perfbench: traced %s %.6g %s\n", d.name, res.values[d.name], d.unit)
		}
		defs = perLayer
	}
	if err := res.writeResult(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// bench is one run: its configuration, the time budget and, when
// traced, the tracks the benchmark's own spans land on.
type bench struct {
	cfg    config
	seed   uint64
	window time.Duration
	traced bool
	rep    *report
	log    io.Writer // progress lines
	// seen is the fingerprint this run observed.
	seen fingerprint
	// buildSecs times every full model build; realized is the first
	// build's result, which every later build must equal.
	buildSecs []float64
	realized  *core.Realized

	// tr and its tracks are nil in an untraced run; a nil track records
	// nothing.
	tr                          *trace.Tracer
	coreTk, fpTk, engTk, chipTk *trace.Track
}

// spanCapacity bounds the events one benchmark track holds: enough for
// traced runs of up to about 90 seconds. spanDurations refuses a track
// that overflowed, so no per-layer figure rests on a truncated record.
const spanCapacity = 1 << 17

func newBench(cfg config, seed uint64, window time.Duration, traced bool) *bench {
	b := &bench{cfg: cfg, seed: seed, window: window, traced: traced, rep: newReport(), log: io.Discard}
	if traced {
		b.tr = trace.New()
		b.coreTk = b.tr.Track("bench-core", spanCapacity)
		b.fpTk = b.tr.Track("bench-emstdp", spanCapacity)
		b.engTk = b.tr.Track("bench-engine", spanCapacity)
		b.chipTk = b.tr.Track("bench-chipnet", spanCapacity)
	}
	return b
}

// options returns the model options of the workload on the given
// backend: batch-1 online training, pool width = CPUs, and for the chip
// four dies on a 2×2 mesh with every population split across them.
func (b *bench) options(backend core.Backend) core.Options {
	o := core.Options{
		Dataset:        b.cfg.dataset,
		Backend:        backend,
		TrainSamples:   b.cfg.train,
		TestSamples:    b.cfg.test,
		PretrainEpochs: b.cfg.pretrainEpochs,
		Seed:           modelSeed,
		Workers:        runtime.NumCPU(),
	}
	if backend == core.Chip {
		o.Chips, o.PartitionStrategy, o.Topology = 4, "range", "mesh"
	}
	return o
}

// trainRounds is the number of FP training rounds in one cycle, each
// followed by chipRounds chip training rounds. The training figures
// take each sample's fastest repeat, which the more repeats a run has
// the less depends on how much of the run the host spent at its slow
// speed: over ten runs on a loaded 2-CPU guest, the spread of the
// figures fell from 24-37% at 6 repeats to 6-17% at 16 and 5-12% at
// 21. A chip sample takes about six times as long as an FP one and
// slows more under load, so its rounds are shorter and more frequent.
const (
	trainRounds = 3
	chipRounds  = 2
)

// run executes setup and then cycles through a model build and the
// three phases until the measured time is spent: each cycle is one full
// model build, trainRounds FP training rounds and trainRounds ×
// chipRounds chip ones, a burst of evaluation passes and one serve
// slice. The host's speed drifts within seconds, so interleaving lets
// every metric sample the whole run instead of one stretch of it. At
// --seconds 45 a cycle takes about seven seconds.
func (b *bench) run() (*report, host, error) {
	h := newHost()
	steal0, stealOK := stealTicks()
	t0 := time.Now()
	r, err := b.setup()
	if err != nil {
		return nil, h, err
	}
	fp := b.newFPPhase(r)
	chip := b.newChipPhase(r)
	srv, err := b.newServePhase(r)
	if err != nil {
		return nil, h, fmt.Errorf("serve_mixed: %w", err)
	}
	fmt.Fprintf(b.log, "perfbench: setup %.1fs\n", time.Since(t0).Seconds())
	t0 = time.Now()
	deadline := t0.Add(b.window)
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		// One more timed build, so that the builds setup_s is the median
		// of are spread over the run like every other timing.
		_, m, err := b.build()
		if err != nil {
			return nil, h, err
		}
		m.Close()
		for range trainRounds {
			if err := fp.train(); err != nil {
				return nil, h, fmt.Errorf("fp_online: %w", err)
			}
			for range chipRounds {
				if err := chip.round(); err != nil {
					return nil, h, fmt.Errorf("chip_mesh: %w", err)
				}
			}
		}
		fp.evaluate(b.window / 75)
		srv.slice(b.window / 40)
	}
	fmt.Fprintf(b.log, "perfbench: %d cycles in %.1fs\n", cycles, time.Since(t0).Seconds())
	t0 = time.Now()
	if err := b.finishSetup(); err != nil {
		return nil, h, err
	}
	if err := fp.finish(); err != nil {
		return nil, h, fmt.Errorf("fp_online: %w", err)
	}
	if err := chip.finish(); err != nil {
		return nil, h, fmt.Errorf("chip_mesh: %w", err)
	}
	if err := srv.finish(); err != nil {
		return nil, h, fmt.Errorf("serve_mixed: %w", err)
	}
	fmt.Fprintf(b.log, "perfbench: checks %.1fs\n", time.Since(t0).Seconds())
	fmt.Fprintf(b.log, "perfbench: fingerprint %#v\n", b.seen)
	if g := b.cfg.golden; g != nil {
		b.rep.check(*g == b.seen, "fingerprint %+v, pinned %+v", b.seen, *g)
	}
	if steal1, ok := stealTicks(); ok && stealOK {
		h.StealTicks = steal1 - steal0
	}
	return b.rep, h, nil
}
