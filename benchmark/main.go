// Command benchmark is the ODBIS benchmark: seven fixed-work workloads
// driven closed-loop through the platform's two front doors, with
// end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced pass. BENCHMARK.json at the repository root describes
// it; README.md in this directory explains every choice.
//
//	go run ./benchmark -seed 1                 every workload, one JSON document
//	go run ./benchmark -seed 1 -trace 1        the per-layer pass
//	go run ./benchmark -workload dash_scan.bin one workload, result line last
//	go run ./benchmark -aa                     the suite twice, differences against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// refSeconds is the run length the frozen op counts were calibrated
// for (BENCHMARK.json run_seconds); -seconds scales them linearly.
const refSeconds = 12

// metricDef names one metric of BENCHMARK.json. bound is the share of
// the baseline's median by which an end-to-end metric may worsen.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd and perLayer are the metric vocabulary; the sync test keeps
// BENCHMARK.json equal to them. Every bound is the widest the driver
// allows: on the reference sandbox whole minutes run 20% slow, and a
// bound below that rejects the benchmark, not a change (README.md).
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "wire_bin.self_us", unit: "us", better: "lower"},
	{name: "proto.codec_us", unit: "us", better: "lower"},
	{name: "proto.bytes_out_per_op", unit: "bytes", better: "lower"},
	{name: "proto.frames_out_per_op", unit: "count", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "services.self_us", unit: "us", better: "lower"},
	{name: "services.shed_per_op", unit: "count", better: "lower"},
	{name: "tenant.self_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.self_us", unit: "us", better: "lower"},
	{name: "sql.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sql.rows_scanned_per_row_returned", unit: "ratio", better: "lower"},
	{name: "storage.self_us", unit: "us", better: "lower"},
	{name: "storage.reads_per_op", unit: "count", better: "lower"},
	{name: "storage.wal_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "storage.wal_syncs_per_op", unit: "count", better: "lower"},
	{name: "report.self_us", unit: "us", better: "lower"},
	{name: "olap.self_us", unit: "us", better: "lower"},
	{name: "olap.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
}

// suiteDoc is the one JSON document a full run prints.
type suiteDoc struct {
	Benchmark  string      `json:"benchmark"`
	Quick      bool        `json:"quick"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Clients    int         `json:"clients"`
	Loop       string      `json:"loop"`
	Plan       string      `json:"plan"`
	Flush      string      `json:"flush"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	GoVersion  string      `json:"go"`
	Commit     string      `json:"commit"`
	Workloads  []runResult `json:"workloads,omitempty"`
	Traces     []traceDoc  `json:"traces,omitempty"`
	AA         []aaRow     `json:"aa,omitempty"`
}

func newDoc(seed int64, seconds int, quick bool) suiteDoc {
	doc := suiteDoc{
		Benchmark: "odbis", Quick: quick, Seed: seed, Seconds: seconds,
		Clients: numClients, Loop: "closed", Plan: "standard", Flush: "SyncBuffered",
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				doc.Commit = s.Value
			}
		}
	}
	return doc
}

// aaRow is one workload x metric comparison of two back-to-back runs.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the second run is, as a share of the first
	// (negative when it is better).
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

func compareAA(first, second []runResult) (rows []aaRow, ok bool) {
	ok = true
	for i, a := range first {
		b := second[i]
		for _, m := range endToEnd {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			worse := (y - x) / x
			if m.better == "higher" {
				worse = -worse
			}
			row := aaRow{Workload: a.Workload, Metric: m.name, First: x, Second: y,
				Worse: worse, Bound: m.bound, Within: math.Abs(worse) <= m.bound}
			ok = ok && row.Within
			rows = append(rows, row)
		}
	}
	return rows, ok
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "run one workload and print its result line last (default: all)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", refSeconds, "nominal run length; scales the frozen op counts linearly")
		trace    = flag.Int("trace", 0, "1 runs the single-client per-layer pass instead of the end-to-end run")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		quick    = flag.Bool("quick", false, "tiny scale for smoke tests; results are not comparable")
		aa       = flag.Bool("aa", false, "run the suite twice and compare the two runs against the bounds")
		dir      = flag.String("dir", ".bench_build/tmp", "scratch directory for on-disk workloads")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	sc := scale{share: float64(*seconds) / refSeconds, setups: 3, dir: *dir}
	if *quick {
		sc = quickScale(*dir)
	}
	ctx := context.Background()
	doc := newDoc(*seed, *seconds, *quick)
	ok := true

	if *trace == 1 {
		var spans []span
		for _, w := range selected {
			td := traceWorkload(ctx, w, *seed, sc, &spans)
			ok = ok && td.Correct
			// The assertion is for the reader of the document; a result
			// line for the driver carries metrics, not verdicts on them.
			if w.mustNest && td.Correct && !(td.Nests && td.Reconciles) && *name == "" {
				fmt.Fprintf(os.Stderr, "benchmark: %s: the ladder does not nest or reconcile\n", w.name)
				ok = false
			}
			doc.Traces = append(doc.Traces, td)
		}
		if *traceOut != "" {
			if err := writeSpans(*traceOut, spans); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if *name != "" {
			td := doc.Traces[0]
			return printResultLine(doc, td.Correct, td.Attempted, td.Failed, td.Metrics, perLayer)
		}
		return printDoc(doc, ok)
	}

	suite := func() []runResult {
		var out []runResult
		for _, w := range selected {
			r := run(ctx, w, *seed, sc)
			ok = ok && r.Correct
			out = append(out, r)
		}
		return out
	}
	doc.Workloads = suite()
	if *aa && ok {
		var within bool
		doc.AA, within = compareAA(doc.Workloads, suite())
		ok = ok && within
	}
	if *name != "" && !*aa {
		r := doc.Workloads[0]
		return printResultLine(doc, r.Correct, r.Attempted, r.Failed, r.Metrics, endToEnd)
	}
	return printDoc(doc, ok)
}

func quickScale(dir string) scale {
	return scale{share: 0.02, rowCap: 2000, setups: 1, dir: dir}
}

// emit writes the document to w; a run that failed says so on stderr.
func emit(w io.Writer, doc suiteDoc, ok bool) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: an operation or a check failed, see \"error\" above")
		return 1
	}
	return 0
}

func printDoc(doc suiteDoc, ok bool) int { return emit(os.Stdout, doc, ok) }

// printResultLine writes the full document to stderr and, as the last
// line of stdout, the one-workload result in the driver's shape: only
// the metrics defs names, each as measured. A failed run prints no
// result and exits non-zero.
func printResultLine(doc suiteDoc, correct bool, attempted, failed int, metrics map[string]metric, defs []metricDef) int {
	if code := emit(os.Stderr, doc, correct); code != 0 {
		return code
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{metrics[d.name].Value, d.unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
