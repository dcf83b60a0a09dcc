package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// printResult prints every metric of one workload by name and unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  (seed %d) ==\n", res.Workload, res.Seed)
	fmt.Fprintf(w, "operations after warm-up: attempted %d  succeeded %d  failed %d\n", res.Attempted, res.Succeeded, res.Failed)
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "timed run: %d s, %d closed-loop clients, tracing off, %d queries, %d writes; set-up ran %d times: %.3f s\n",
			res.Seconds, loadClients, res.TimedSamples, res.Writes, len(res.SetupS), res.SetupS)
		for _, def := range endToEndDefs {
			m := res.EndToEnd[def.name]
			note := ""
			switch def.name {
			case "latency_p50_ms", "latency_p95_ms", "ttfs_p50_ms":
				note = fmt.Sprintf("   (n=%d)", res.TimedSamples)
			case "setup_s":
				note = fmt.Sprintf("   (median of %d)", len(res.SetupS))
			}
			fmt.Fprintf(w, "  %-28s %12.4f %s%s\n", def.name, m.Value, m.Unit, note)
		}
		fmt.Fprintf(w, "  %-28s %12.4f ms   (n=%d, information only)\n", "latency_p99_ms", res.LatencyP99MS, res.TimedSamples)
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "traced pass: %d requests, 1 client; isolated calls: 1 goroutine\n", res.TracedRequests)
		for _, def := range perLayerDefs {
			m := res.PerLayer[def.name]
			fmt.Fprintf(w, "  %-28s %12.4f %s\n", def.name, m.Value, m.Unit)
		}
		reqP50 := res.PerLayer["request.p50_ms"].Value
		fmt.Fprintf(w, "budget of the median traced request (%.4f ms):\n", reqP50)
		self := res.PerLayer["mediator.self_ms"].Value
		fmt.Fprintf(w, "  %-22s %12s %14s %10s %7s %8s\n", "layer", "us/unit", "units/request", "ms", "share", "of self")
		for _, b := range res.Budget {
			ofSelf := ""
			if b.Layer != "endpoint.blocking" {
				ofSelf = fmt.Sprintf("%7.1f%%", 100*ratio(b.MS, self))
			}
			fmt.Fprintf(w, "  %-22s %12.3f %14.2f %10.4f %6.1f%% %s\n", b.Layer, b.PerUnit, b.Units, b.MS, 100*ratio(b.MS, reqP50), ofSelf)
		}
		fmt.Fprintf(w, "  %-22s %12s %14s %10.4f %6.1f%%\n", "unattributed_ms", "", "",
			res.PerLayer["unattributed_ms"].Value, 100*res.PerLayer["unattributed_share"].Value)
	}
	if res.FirstFailure != "" {
		fmt.Fprintf(w, "  FIRST FAILURE: %s\n", res.FirstFailure)
	}
}

// setupSlack is the set-up time difference that is not a regression
// whatever its share: the interval is a few seconds long.
const setupSlack = 0.2

// printCheck compares the timed runs of two sets of the same code metric
// by metric against the bounds and reports whether all agree.
func printCheck(w io.Writer, bf *benchmarkFile, first, second []*result) bool {
	fmt.Fprintf(w, "\n== repeatability: set 2 against set 1 ==\n")
	fmt.Fprintf(w, "  %-16s %-22s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	ok := true
	for i, a := range first {
		b := second[i]
		for _, e := range bf.EndToEnd {
			va, vb := a.EndToEnd[e.Name].Value, b.EndToEnd[e.Name].Value
			diff := ratio(math.Abs(vb-va), va)
			verdict := ""
			within := diff <= e.Bound || (e.Name == "setup_s" && math.Abs(vb-va) < setupSlack)
			if !within {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "  %-16s %-22s %12.4f %12.4f %7.2f%% %6.1f%%%s\n",
				a.Workload, e.Name, va, vb, 100*diff, 100*e.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "  %-16s failed operations: %d and %d\n", a.Workload, a.Failed, b.Failed)
			ok = false
		}
	}
	return ok
}
