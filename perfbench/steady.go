package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// child runs one workload in a fresh process of this binary and returns
// its result line. The child's report is echoed to echo.
func child(cfg runConfig, name string, seed uint64, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--build-dir", cfg.buildDir, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(cfg.seconds), "--trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: no result line (%v, exit %v)", name, seed, err, runErr)
	}
	if runErr != nil && r.Correct {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
	}
	return r, nil
}

// runAll runs every workload in its own process and prints every
// metric of each by name and unit. Its result line merges the
// workloads, naming each metric <workload>/<metric>.
func runAll(cfg runConfig) error {
	all := result{Correct: true, Metrics: map[string]valueUnit{}}
	var rows []string
	for _, w := range workloads {
		r, err := child(cfg, w.name, cfg.seed, cfg.out)
		if err != nil {
			return err
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for _, m := range metricSet(cfg.trace) {
			v := r.Metrics[m.name]
			all.Metrics[w.name+"/"+m.name] = v
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.6g\t%s", w.name, m.name, v.Value, v.Unit))
		}
	}
	fmt.Fprintln(cfg.out, "\nall workloads:")
	tw := tabwriter.NewWriter(cfg.out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	for _, row := range rows {
		fmt.Fprintln(tw, row)
	}
	_ = tw.Flush() // a failed write to stdout leaves nothing to report to
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.out, string(b))
	if !all.Correct {
		return errFailed
	}
	return nil
}

// benchBounds reads each end-to-end metric's bound from BENCHMARK.json
// in the working directory (the checkout root).
func benchBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// runSteady is the steadiness mode: per workload, two sets of n runs of
// this build, interleaved run by run (A B A B …), every run on its own
// seed. Per metric it prints each set's quartiles and spread, the
// spread of all 2n runs, and the set-to-set difference of medians, each
// against the metric's bound from BENCHMARK.json.
func runSteady(cfg runConfig, name string, n int) error {
	bounds, err := benchBounds()
	if err != nil {
		return err
	}
	targets := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		targets = []benchWorkload{w}
	}
	cfg.trace = false
	ok := true
	for _, w := range targets {
		var sets [2][]result
		for k := 0; k < n; k++ {
			for s := range sets {
				seed := cfg.seed + uint64(2*k+s)
				steal0, total0, _ := machineSteal()
				r, err := child(cfg, w.name, seed, io.Discard)
				if err != nil {
					return err
				}
				if !r.Correct {
					return fmt.Errorf("%s seed %d: correctness gates failed", w.name, seed)
				}
				sets[s] = append(sets[s], r)
				steal1, total1, _ := machineSteal()
				fmt.Fprintf(os.Stderr, "steady: %s run %d set %c seed %d: op_p50_ms %.4g, host steal %.1f%%\n", w.name, k, 'A'+s, seed,
					r.Metrics["op_p50_ms"].Value, 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
			}
		}
		fmt.Fprintf(cfg.out, "\n%s: two sets of %d runs, interleaved\n", w.name, n)
		tw := tabwriter.NewWriter(cfg.out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tA q1/med/q3\tA spread\tB q1/med/q3\tB spread\tall spread\tB−A\tbound\tverdict")
		for _, m := range endToEnd {
			var a, b, both []float64
			for _, r := range sets[0] {
				a = append(a, r.Metrics[m.name].Value)
			}
			for _, r := range sets[1] {
				b = append(b, r.Metrics[m.name].Value)
			}
			both = append(append(both, a...), b...)
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			diff := (bm - am) / am
			bound := bounds[m.name]
			verdict := "steady"
			// Spread is judged on every metric but set-up time, whose
			// bound only limits the move of its median.
			if (m.name != "setup_s" && spread(both) > bound/3) || math.Abs(diff) > bound/3 {
				verdict = "above a third of the bound"
			}
			if (m.name != "setup_s" && spread(both) > bound) || math.Abs(diff) > bound {
				verdict = "OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%.4g/%.4g/%.4g\t%.3f\t%.4g/%.4g/%.4g\t%.3f\t%.3f\t%+.3f\t%.3f\t%s\n",
				m.name, a1, am, a3, spread(a), b1, bm, b3, spread(b), spread(both), diff, bound, verdict)
		}
		_ = tw.Flush() // a failed write to stdout leaves nothing to report to
	}
	if !ok {
		return fmt.Errorf("a metric moved by more than its bound")
	}
	return nil
}
