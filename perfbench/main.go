// Command perfbench is the seeded end-to-end and per-layer benchmark of
// unn.Handle.
//
// One run generates its inputs from -seed, opens a handle on them, drives
// one named workload through the public API for -seconds, checks a
// deterministic sample of the answers against the brute oracle, prints a
// human-readable report and ends with one JSON line:
//
//	{"correct": true, "attempted": 7301, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run measures the workload for half the time untraced and half traced
// (spans kept in memory around every call into the program), replays the
// traced loop's sampled requests down the layer stack (Handle → Index → kernel,
// quantify, batch, planner, snapshot, mutation), writes the spans to
// -out, and reports the per-layer metrics plus the tracing overhead.
//
// RECORD.json beside this file lists every workload with its client
// count and in-flight window, every metric with the workloads it applies
// to, and the layer metric predicted to move each end-to-end metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload point_uniform --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 10, "length of one measured loop")
		trace   = fs.Int("trace", 0, "1: traced run with per-layer metrics")
		n       = fs.Int("n", 0, "dataset size (0: the workload's own)")
		dir     = fs.String("dir", "perfbench", "directory holding calibration.json")
		out     = fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		n:       *n,
		calPath: filepath.Join(*dir, "calibration.json"),
		outDir:  *out,
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

type config struct {
	seed    int64
	dur     time.Duration
	trace   bool
	n       int
	calPath string
	outDir  string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is everything one run prints: the metrics of the JSON line,
// the metrics that apply only to this workload (printed, not in the
// JSON line), and the oracle's verdict.
type result struct {
	workload  string
	cfg       config
	n         int
	metrics   []metric
	extra     []metric
	notes     []string
	attempted int
	errors    int
	wrong     []string
}

func (r *result) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *result) addExtra(name string, v float64, unit, note string) {
	r.extra = append(r.extra, metric{name, v, unit, note})
}

func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g n=%d metrics=%s\n",
		r.workload, r.cfg.seed, r.cfg.dur.Seconds(), r.n, mode)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	row := func(m metric) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range r.metrics {
		row(m)
	}
	if len(r.extra) > 0 {
		fmt.Fprintf(w, "  -- printed only (not in the JSON line):\n")
		for _, m := range r.extra {
			row(m)
		}
	}
	failed := r.errors + len(r.wrong)
	for _, s := range r.wrong {
		fmt.Fprintf(w, "  WRONG %s\n", s)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g %-6s (%d errors + %d wrong answers of %d attempted)\n",
		"fail_frac", frac, "1", r.errors, len(r.wrong), r.attempted)
	fmt.Fprintln(w, r.jsonLine())
}

func (r *result) jsonLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		r.errors == 0 && len(r.wrong) == 0, max(r.attempted, 1), r.errors+len(r.wrong))
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, jsonNum(m.value), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// jsonNum prints v with all its digits.
func jsonNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
