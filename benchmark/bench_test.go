package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func toJSONMetrics(defs []metricDef) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric{d.name, d.unit, d.better, d.bound}
	}
	return out
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef, extra ...string) []string {
	out := append([]string(nil), extra...)
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeAndSync runs every workload end to end and through the
// traced pass at the quick scale with no failed operation, and pins
// BENCHMARK.json to the code: the same workloads with the same reasons,
// the same metrics with the same units, directions and bounds, and
// exactly those metric names in the program's output.
func TestSmokeAndSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != refSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the op counts are frozen for %d", bj.RunSeconds, refSeconds)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("BENCHMARK.json paths = %v, want %v", bj.Paths, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if want := toJSONMetrics(endToEnd); !reflect.DeepEqual(bj.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the program reports %+v", bj.EndToEnd, want)
	}
	if want := toJSONMetrics(perLayer); !reflect.DeepEqual(bj.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the program reports %+v", bj.PerLayer, want)
	}

	ctx := context.Background()
	sc := quickScale(t.TempDir())
	var spans []span
	for _, w := range workloads {
		r := run(ctx, w, 1, sc)
		if !r.Correct || r.Failed != 0 || r.Metrics["fail_share"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d: %s", w.name, r.Correct, r.Failed, r.Error)
		}
		// fail_share is always printed but is 0 on a healthy build, so
		// BENCHMARK.json carries it as failed/attempted instead; the
		// disk ratio exists only where there is a disk.
		want := names(endToEnd, "fail_share")
		if w.onDisk {
			want = names(endToEnd, "fail_share", "disk_bytes_per_user_byte")
		}
		if got := keys(r.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, want)
		}
		for _, d := range endToEnd {
			if m := r.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", w.name, d.name, m.Value, m.Unit, d.unit)
			}
		}

		td := traceWorkload(ctx, w, 1, sc, &spans)
		if !td.Correct || td.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d: %s", w.name, td.Correct, td.Failed, td.Error)
		}
		if got, want := keys(td.Metrics), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, want)
		}
	}
	if len(spans) == 0 {
		t.Error("the traced pass recorded no spans")
	}
}

// streamHash digests the first n operations of one client's timed
// stream: SQL text, arguments and tenant.
func streamHash(w *workload, seed int64, client, n int) uint64 {
	s := newStream(w, seed, "timed", client, numClients, w.rows, int64(w.rows+1))
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(h, "%d|%d|%s|%v\n", o.kind, o.tenant, o.sql, o.args)
	}
	return h.Sum64()
}

// TestDeterminism pins what comparisons between two builds rely on:
// the same seed replays the same statements per workload and client, a
// different seed does not, and on the single-client traced pass the
// read-only workloads' counts repeat exactly.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < numClients; c++ {
			a, b := streamHash(w, 7, c, 500), streamHash(w, 7, c, 500)
			if a != b {
				t.Errorf("%s client %d: the same seed gave different statement streams", w.name, c)
			}
			if streamHash(w, 8, c, 500) == a {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same statement stream", w.name, c)
			}
		}
		if streamHash(w, 7, 0, 500) == streamHash(w, 7, 1, 500) {
			t.Errorf("%s: clients 0 and 1 share a statement stream", w.name)
		}
	}

	ctx := context.Background()
	sc := quickScale(t.TempDir())
	var spans []span
	for _, name := range []string{"point_get.bin", "point_get.http", "dash_scan.bin", "tenants64.bin"} {
		w := findWorkload(name)
		first, second := traceWorkload(ctx, w, 7, sc, &spans), traceWorkload(ctx, w, 7, sc, &spans)
		for _, m := range []string{"sql.rows_scanned_per_row_returned", "storage.reads_per_op", "proto.frames_out_per_op"} {
			if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
				t.Errorf("%s: %s = %v then %v with the same seed", name, m, a, b)
			}
		}
	}
}
