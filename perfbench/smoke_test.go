package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"unn"
	"unn/internal/geom"
	"unn/internal/quantify"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmoke runs every workload at tiny n, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its
// unit, that the workload-only metrics are printed (p99_ms only when
// enough requests lie beyond it), and that no answer failed the oracle.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	for i, m := range perLayer {
		if i >= len(bf.PerLayer) || bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Fatalf("per_layer[%d]: program has %s (%s), BENCHMARK.json differs", i, m.name, m.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.4", "-n", "1500",
					"-trace", trace, "-dir", ".", "-out", t.TempDir()}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("correct=%t failed=%d attempted=%d (fail_frac must be 0)\n%s",
						got.Correct, got.Failed, got.Attempted, out.String())
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok || g.Unit != m.Unit {
						t.Errorf("metric %s (%s) missing or with unit %q", m.Name, m.Unit, g.Unit)
					}
				}
				extra := w.extraE2E
				if trace == "1" {
					extra = map[string][]string{
						"serve_churn": {"serve.admit_wait_ms", "serve.in_service_ms"},
						"mix_drift":   {"adaptive.replan_lag_queries", "adaptive.replan_ms"},
					}[w.name]
				}
				for _, name := range append([]string{"fail_frac"}, extra...) {
					// p99_ms is printed only with at least 10 requests
					// beyond it, which a run this short may not reach.
					if name == "p99_ms" {
						continue
					}
					if !strings.Contains(out.String(), "  "+name+" ") {
						t.Errorf("report lacks %s", name)
					}
				}
			})
		}
	}
}

// TestOracleSubset checks the oracle's shortcut: π over the NN≠0
// members equals quantify.ExactPositive over the whole dataset.
func TestOracleSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	side := 10 * math.Sqrt(500)
	pts := randomPoints(rng, 500, side)
	up := unn.FromDiscrete(pts)
	for i := 0; i < 20; i++ {
		q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		full := map[int]float64{}
		for _, p := range quantify.ExactPositive(pts, q) {
			full[p.I] = p.P
		}
		sub := exactProbs(pts, unn.NonzeroNN(up, q), q)
		for _, p := range sub {
			if math.Abs(p.P-full[p.I]) > 1e-12 {
				t.Fatalf("π_%d = %g over NN≠0, %g over all", p.I, p.P, full[p.I])
			}
			delete(full, p.I)
		}
		for i, p := range full {
			if p > 1e-12 {
				t.Fatalf("π_%d = %g over all, absent over NN≠0", i, p)
			}
		}
	}
}
