// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths of the system — the paper's Table 1 reproduction
// (Engine.Run/Simulate), fleet tick throughput under §4
// reconfiguration, and the fleetd daemon's durable HTTP ingest — one
// workload per process, checks every output for correctness, and prints
// the end-to-end metrics, or with --trace 1 a per-layer breakdown timed
// around calls into each layer's public functions.
//
// Usage (from the root of a checkout; run.sh builds and then execs this):
//
//	bash perfbench/run.sh --workload paper-table1 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --workload all --steady 5 --seconds 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md for the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that BENCHMARK.json
// gates, printed by every workload's untraced run and carried by its
// result line.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"query_p50_ms", "ms"},
}

// ungated are end-to-end metrics every untraced run prints beside the
// gated ones but leaves out of the result line: on a shared 2-vCPU host
// their run-to-run spread (interquartile distance over ten runs, up to
// 0.27 for paper-table1's ops_per_s and 0.47 for fleetd-ingest's p90s)
// exceeds any bound a gate may use.
var ungated = []metric{
	{"ops_per_s", "1/s"},
	{"op_p90_ms", "ms"},
	{"query_p90_ms", "ms"},
}

// perLayer are the traced run's per-layer metrics. Every workload
// prints all of them; a layer the workload's timed boundaries never
// call reads 0.
var perLayer = []metric{
	{"spatial.grid_ms", "ms"},
	{"core.oracle_ms", "ms"},
	{"core.run_node_calls", "count"},
	{"core.neighbors", "count"},
	{"core.quantize_ms", "ms"},
	{"core.shrink_back_ms", "ms"},
	{"core.pairwise_ms", "ms"},
	{"core.summarize_ms", "ms"},
	{"core.max_power_graph_ms", "ms"},
	{"graph.symmetrize_ms", "ms"},
	{"proto.simulate_ms", "ms"},
	{"netsim.sent", "count"},
	{"netsim.delivered", "count"},
	{"fleet.advance_ms", "ms"},
	{"fleet.idle_ms", "ms"},
	{"fleet.leases", "count"},
	{"fleet.requeues", "count"},
	{"fleet.timeouts", "count"},
	{"fleet.observe_us", "us"},
	{"session.tick_ms.shrinkback", "ms"},
	{"session.tick_ms.pairwise", "ms"},
	{"session.tick_ms.shadowed", "ms"},
	{"session.tick_ms.protocol", "ms"},
	{"session.apply_batch_ms", "ms"},
	{"session.observe_us", "us"},
	{"session.recomputed_per_tick", "count"},
	{"session.regrows_per_tick", "count"},
	{"session.repairs_per_tick", "count"},
	{"workload.drift_tick_us", "us"},
	{"fleetd.events_ms", "ms"},
	{"fleetd.healthz_ms", "ms"},
	{"fleetd.network_ms", "ms"},
	{"fleetd.checkpoint_ms", "ms"},
	{"fleetd.checkpoint_bytes", "bytes"},
	{"fleetd.wal_bytes_per_event", "bytes"},
	{"fleetd.queued_max", "count"},
	{"loadgen.late_ms", "ms"},
	{"spatial.allocs", "count"},
	{"spatial.alloc_kb", "kB"},
	{"core.allocs", "count"},
	{"core.alloc_kb", "kB"},
	{"graph.allocs", "count"},
	{"graph.alloc_kb", "kB"},
	{"proto.allocs", "count"},
	{"proto.alloc_kb", "kB"},
	{"fleet.allocs", "count"},
	{"fleet.alloc_kb", "kB"},
	{"session.allocs", "count"},
	{"session.alloc_kb", "kB"},
	{"remainder_ms", "ms"},
	{"tracing_overhead_ms", "ms"},
}

// runConfig is what one workload run receives.
type runConfig struct {
	seed     uint64
	seconds  int
	trace    bool
	buildDir string
	out      io.Writer // human-readable report
}

// outcome is one workload run's result. metrics holds the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one;
// notes are printed beside them but never gated.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name, why string
	run       func(runConfig) (outcome, error)
}

var workloads = []benchWorkload{
	{"paper-table1", "the paper's Table 1 path: Engine.Run on seven CBTC stacks, MaxPower and one Simulate per 100-node network", runPaper},
	{"fleet-mobility", "in-process fleet under dense churn: 8 members of 1000 nodes on 2 workers, 62 moves plus churn per member tick", runFleet},
	{"fleetd-ingest", "fleetd over loopback under sparse churn: 30 posts/s of 16 events, with 10 reads/s and a checkpoint every 2 s beside the writes", runIngest},
}

// result is the final stdout line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "nominal measuring time of one run")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		buildDir = flag.String("build-dir", "", "directory holding the fleetd binary and run state (run.sh sets it)")
		steady   = flag.Int("steady", 0, "steadiness mode: two interleaved sets of this many runs per workload")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *buildDir, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errFailed = errors.New("correctness gates failed")

func mainErr(name string, seed uint64, seconds, trace int, buildDir string, steady int) error {
	if seconds < 1 || (trace != 0 && trace != 1) || steady < 0 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if buildDir == "" {
		return errors.New("--build-dir is required (run through perfbench/run.sh)")
	}
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: trace == 1, buildDir: abs, out: os.Stdout}
	switch {
	case steady > 0:
		return runSteady(cfg, name, steady)
	case name == "all":
		return runAll(cfg)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames(), ", "))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(cfg.out, "workload %s (%s)\nseed %d  seconds %d  trace %d  GOMAXPROCS %d\n", w.name, w.why, seed, seconds, trace, runtime.GOMAXPROCS(0))
	steal0, total0, stealErr := machineSteal()
	o, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	// Host steal is the main source of run-to-run noise on shared
	// machines; it is printed to read a run's figures by, never gated.
	if steal1, total1, err := machineSteal(); stealErr == nil && err == nil && total1 > total0 {
		o.notes = append(o.notes, fmt.Sprintf("host steal during the run: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0)))
	}
	printOutcome(cfg.out, o, cfg.trace)
	if err := writeResult(cfg.out, o, cfg.trace); err != nil {
		return err
	}
	if o.failed > 0 {
		return errFailed
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (benchWorkload, bool) {
	i := slices.IndexFunc(workloads, func(w benchWorkload) bool { return w.name == name })
	if i < 0 {
		return benchWorkload{}, false
	}
	return workloads[i], true
}

// metricSet is the metric list a run reports.
func metricSet(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printOutcome(w io.Writer, o outcome, trace bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, m := range metricSet(trace) {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.name, o.metrics[m.name], m.unit)
	}
	if !trace {
		for _, m := range ungated {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t(not gated)\n", m.name, o.metrics[m.name], m.unit)
		}
	}
	_ = tw.Flush() // tabwriter over a terminal stream: nothing to recover
	for _, n := range o.notes {
		fmt.Fprintln(w, "  "+n)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "fail_rate %.6g (%d failed of %d attempted)\n", rate, o.failed, o.attempted)
}

func writeResult(w io.Writer, o outcome, trace bool) error {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]valueUnit{}}
	for _, m := range metricSet(trace) {
		v, ok := o.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		r.Metrics[m.name] = valueUnit{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// gates records failed correctness checks and their messages. The
// workloads count a failed op or request once however many of its
// checks tripped, and each failed run-level check once.
type gates struct {
	failed int
	notes  []string
}

func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		g.failed++
		if len(g.notes) < 20 {
			g.notes = append(g.notes, "GATE FAILED: "+fmt.Sprintf(format, args...))
		}
	}
}
