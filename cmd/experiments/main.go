// Command experiments regenerates the paper's tables and figures:
//
//	experiments -exp table1          # Table I: accuracy grid
//	experiments -exp table2          # Table II: power and energy
//	experiments -exp fig3            # Fig 3: neurons/core trade-off
//	experiments -exp fig4            # Fig 4: incremental online learning
//	experiments -exp all -scale full # everything at full scale
//
// Table I, Fig 3 and the ablations run as orchestrator task graphs on
// -workers pool workers, sharing one stage cache per invocation, so a
// realized dataset or pretrained network computes once however many
// cells use it. -cache-dir spills that cache to disk, and a rerun over
// a populated directory computes only what changed.
//
// Observability: -trace out.json records every layer (pool workers,
// orchestrator stages, mesh phases) as a Chrome/Perfetto trace; -pprof
// addr serves net/http/pprof plus the live counters snapshot while the
// run is in flight.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"emstdp/internal/experiments"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/metrics"
	"emstdp/internal/orchestrator"
	"emstdp/internal/trace"
)

// parseChips turns a comma-separated die-count list ("1,2,4") into the
// Fig-3 sweep values.
func parseChips(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad die count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1, table2, fig3, fig4, ablations, adaptation or all")
	scale := flag.String("scale", "quick", "run scale: quick or full")
	seed := flag.Uint64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 1, "engine pool width for sweep grids (1 = sequential, -1 = GOMAXPROCS)")
	chips := flag.String("chips", "1", "comma-separated die counts the fig3 grid sweeps (e.g. 1,2,4)")
	partition := flag.String("partition", "population", "multi-die sharding strategy: population, range or traffic")
	topology := flag.String("topology", "line", "multi-die NoC topology: line, mesh or torus")
	fig3csv := flag.String("fig3csv", "", "also write the fig3 grid as CSV to this path")
	cacheDir := flag.String("cache-dir", "", "spill directory for the sweep grids' stage cache (\"\" = in-memory only; a populated directory makes reruns warm-start)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this JSON file (open at ui.perfetto.dev or chrome://tracing)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and the live counters snapshot on this address (e.g. localhost:6060)")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Workers = *workers
	dieCounts, err := parseChips(*chips)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Chips = dieCounts
	if _, err := mapping.ParseStrategy(*partition); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Partition = *partition
	if _, err := loihi.ParseTopologyKind(*topology); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Topology = *topology
	// One cache across every grid this invocation runs, so e.g. -exp all
	// shares realized prefixes between table1 and fig3 cells with the
	// same realization options.
	sc.Cache = orchestrator.NewCache(*cacheDir)
	sc.Counters = metrics.NewCounters()
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
		sc.Trace = tracer
	}
	if *pprofAddr != "" {
		ctr := sc.Counters
		expvar.Publish("emstdp.counters", expvar.Func(func() any { return ctr.Snapshot() }))
		http.HandleFunc("/debug/counters", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			ctr.WriteTo(w)
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("debug server on http://%s (/debug/pprof/, /debug/vars, /debug/counters)\n", *pprofAddr)
	}

	run := func(name string, f func() error) {
		start := time.Now()
		fmt.Printf("== %s (scale=%s, seed=%d) ==\n", name, *scale, *seed)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %s --\n\n", name, time.Since(start).Round(time.Second))
	}

	// -exp accepts a comma-separated list so one invocation (and one
	// trace file) can cover several experiments without running all six.
	known := map[string]bool{"table1": true, "table2": true, "fig3": true, "fig4": true, "adaptation": true, "ablations": true}
	selected := make(map[string]bool)
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			for k := range known {
				selected[k] = true
			}
			continue
		}
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		selected[name] = true
	}
	want := func(name string) bool { return selected[name] }

	if want("table1") {
		run("table1", func() error {
			rows, err := experiments.Table1(sc, *seed, os.Stdout)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			return nil
		})
	}
	if want("table2") {
		run("table2", func() error {
			rows, err := experiments.Table2(sc, *seed)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
			return nil
		})
	}
	if want("fig3") {
		run("fig3", func() error {
			points, err := experiments.Fig3(sc, *seed)
			if err != nil {
				return err
			}
			experiments.PrintFig3(os.Stdout, points)
			if *fig3csv != "" {
				f, err := os.Create(*fig3csv)
				if err != nil {
					return err
				}
				if err := experiments.WriteFig3CSV(f, points); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("fig3 CSV written to %s\n", *fig3csv)
			}
			return nil
		})
	}
	if want("fig4") {
		run("fig4", func() error {
			res, err := experiments.Fig4(sc, *seed)
			if err != nil {
				return err
			}
			experiments.PrintFig4(os.Stdout, res)
			return nil
		})
	}
	if want("adaptation") {
		run("adaptation", func() error {
			res, err := experiments.Adaptation(sc, 25, *seed, os.Stdout)
			if err != nil {
				return err
			}
			experiments.PrintAdaptation(os.Stdout, res)
			return nil
		})
	}
	if want("ablations") {
		run("ablations", func() error {
			results, err := experiments.Ablations(sc, *seed, os.Stdout)
			if err != nil {
				return err
			}
			experiments.PrintAblations(os.Stdout, results)
			return nil
		})
	}
	if len(sc.Counters.Names()) > 0 {
		fmt.Println("orchestrator counters:")
		if _, err := sc.Counters.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "writing counters: %v\n", err)
			os.Exit(1)
		}
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating trace file: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing trace file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (open at ui.perfetto.dev)\n", *traceOut)
	}
}
