package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runRecord is one result file: the run's standard output.
type runRecord struct {
	set    string
	path   string
	detail detail
	result result
}

func readRecord(path string) (*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want a detail line and a result line", path)
	}
	rec := &runRecord{set: filepath.Base(filepath.Dir(path)), path: path}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec.detail); err != nil {
		return nil, fmt.Errorf("%s: detail line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return rec, nil
}

// spreadMain summarizes untraced result files, grouped into sets by their
// directory: per workload, metric and set the median, the quartiles and
// the spread (the quartile distance as a share of the median), then the
// largest relative disagreement between the sets' medians. It exits 1 when
// a spread (other than setup_s's) or a disagreement exceeds the metric's
// bound in BENCHMARK.json, or when a run was not correct.
func spreadMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fragbench spread", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragbench spread:", err)
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "fragbench spread: no result files")
		return 2
	}
	// runs[workload][set] holds the set's runs of the workload.
	runs := make(map[string]map[string][]*runRecord)
	breaches := 0
	for _, path := range fs.Args() {
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fragbench spread:", err)
			return 2
		}
		if rec.detail.Trace {
			continue
		}
		if !rec.result.Correct || rec.result.Failed > 0 {
			fmt.Fprintf(stdout, "BREACH %s: not correct (%d of %d ops failed)\n", path, rec.result.Failed, rec.result.Attempted)
			breaches++
		}
		w := rec.detail.Workload
		if runs[w] == nil {
			runs[w] = make(map[string][]*runRecord)
		}
		runs[w][rec.set] = append(runs[w][rec.set], rec)
	}

	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset\truns\tmedian\tq1\tq3\tspread\tbound\tverdict")
	for _, wd := range bench.Workloads {
		sets := runs[wd.Name]
		names := make([]string, 0, len(sets))
		for s := range sets {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, m := range bench.EndToEnd {
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			var medians []float64
			for _, s := range names {
				var vals []float64
				for _, rec := range sets[s] {
					if v, ok := rec.result.Metrics[m.Name]; ok {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) == 0 {
					fmt.Fprintf(tw, "%s\t%s\t%s\t0\t-\t-\t-\t-\t%.3g\tBREACH: missing\n", wd.Name, m.Name, s, bound)
					breaches++
					continue
				}
				med := median(vals)
				q1, _, q3 := quartiles(vals)
				spread := (q3 - q1) / med
				verdict := ""
				switch {
				case m.Name != "setup_s" && spread > bound:
					verdict = "BREACH: spread"
					breaches++
				case m.Name != "setup_s" && spread > bound/3:
					verdict = "above a third of the bound"
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.3g%s\n",
					wd.Name, m.Name, s, len(vals), med, q1, q3, spread, bound, cell(verdict))
				medians = append(medians, med)
			}
			if len(medians) < 2 {
				continue
			}
			worst := disagreement(medians, m.Better)
			verdict := ""
			if worst > bound {
				verdict = "BREACH: disagreement"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\tsets\t\t\t\t\t%.4f\t%.3g%s\n", wd.Name, m.Name, worst, bound, cell(verdict))
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "no breaches")
	return 0
}

// cell renders an optional last column, so that rows without one carry no
// trailing padding.
func cell(s string) string {
	if s == "" {
		return ""
	}
	return "\t" + s
}

// disagreement is the largest relative worsening between any two medians:
// how much worse, as a share of one median, another median reads.
func disagreement(medians []float64, better string) float64 {
	worst := 0.0
	for _, a := range medians {
		for _, b := range medians {
			var d float64
			if better == "higher" {
				d = (a - b) / a
			} else {
				d = (b - a) / a
			}
			worst = max(worst, d)
		}
	}
	return worst
}
