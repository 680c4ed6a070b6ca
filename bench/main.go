// Command bench is the repo's one benchmark: five workloads, five
// end-to-end metrics, and a per-layer cost table (bench/README.md).
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -trace 1                 every workload, per-layer metrics + bench/out/trace.json
//	go run ./bench -runs 10 -out A.json     ten seeds per workload, for -compare
//	go run ./bench -compare A.json B.json   verdict per (workload, end-to-end metric)
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is what BENCHMARK.json's driver runs: one workload in
// this process, a result object as the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and print its result object last (default: every workload, each in a fresh child process)")
		seed    = flag.Uint64("seed", 1, "drives wide8's thresholds and labels, every query stream and the arrival schedule; run r of -runs uses seed+r")
		seconds = flag.Float64("seconds", runSeconds, "measured window per workload")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, spans); 0: end-to-end metrics, tracing off")
		runs    = flag.Int("runs", 1, "repetitions of every workload, on consecutive seeds")
		out     = flag.String("out", filepath.Join(outDir, "results.json"), "where the all-workloads run writes its report")
		compare = flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *name != "":
		err = runOne(*name, options{seed: *seed, trace: *trace != 0, plan: fullPlan(*seconds)})
	default:
		err = runAll(*seed, *seconds, *trace, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object a single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reported are the metrics a run of the given kind must print.
func reported(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in this process: provenance header, one row
// per metric, then the result object. A wrong answer still prints the
// object (correct: false) and then fails the command.
func runOne(name string, o options) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	prov := newProvenance(o.seed, o.window.Seconds())
	prov.print(os.Stdout)
	res, err := run(w, o)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s: %d attempted, %d succeeded, %d failed\n", name, res.Attempted, res.Attempted-res.Failed, res.Failed)
	if res.Executor != "" {
		fmt.Printf("  %-36s %s\n", "core.executor", res.Executor)
	}
	for _, m := range reported(o.trace) {
		v := res.Metrics[m.Name]
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if o.trace {
		path, err := writeTrace(name, prov, res.spans)
		if err != nil {
			return err
		}
		fmt.Printf("  spans: %d written to %s\n", len(res.spans), path)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("bench: %s: encoding result: %w", name, err)
	}
	fmt.Printf("%s\n", enc)
	if !res.Correct {
		return fmt.Errorf("bench: %s: answers differ from the plaintext forest", name)
	}
	return nil
}

// traceFile is what a traced run leaves behind for one workload.
type traceFile struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	SelfMS     map[string]float64 `json:"self_ms_by_name"`
	Spans      []span             `json:"spans"`
}

func tracePath(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

func writeTrace(workload string, prov provenance, spans []span) (string, error) {
	path := tracePath(workload)
	return path, writeJSON(path, traceFile{Provenance: prov, Workload: workload, SelfMS: selfByName(spans), Spans: spans})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runRecord is one workload run inside a report.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

// report is what the all-workloads run writes and -compare reads.
type report struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// runAll runs every workload, each in a fresh child process so that
// peak_rss_mb and the ring package's global state belong to one
// workload, then prints one row per workload and writes the report.
func runAll(seed uint64, seconds float64, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Provenance: newProvenance(seed, seconds)}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			rec := runRecord{Workload: w.Name, Seed: seed + uint64(r), Trace: trace}
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatUint(rec.Seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("bench: workload %s: %w", w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.resultLine); err != nil {
				return fmt.Errorf("bench: workload %s: reading result: %w", w.Name, err)
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	fmt.Println()
	rep.printTable(os.Stdout, reported(trace != 0))
	if trace != 0 {
		merged := map[string]traceFile{}
		for _, w := range workloads {
			var tf traceFile
			data, err := os.ReadFile(tracePath(w.Name))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				return err
			}
			merged[w.Name] = tf
		}
		path := filepath.Join(outDir, "trace.json")
		if err := writeJSON(path, merged); err != nil {
			return err
		}
		fmt.Printf("spans of every workload written to %s\n", path)
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}
