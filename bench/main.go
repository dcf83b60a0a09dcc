// Command bench is the repository's benchmark: it boots the example
// federation of cmd/mediator in one process, drives real HTTP GET /sparql
// requests at it from closed-loop clients, checks every answer against
// ground truth, and reports end-to-end and per-layer metrics. README.md
// in this directory is the glossary; BENCHMARK.json at the repository
// root fixes the regression bounds.
//
//	go run ./bench -seed 1                      every workload, both passes
//	go run ./bench -seed 1 -repeat 2 -check     two sets, compared with the bounds
//	go run ./bench -workload bulk-stream -seed 3 -seconds 20 -trace 0
//
// With -workload and -trace 0 or 1 the last line of standard output is
// one JSON object: the end-to-end metrics (-trace 0, timed run only) or
// the per-layer metrics (-trace 1, traced pass and isolated calls only).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workloadName := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the clients' query permutations and Zipf draws")
	seconds := flag.Int("seconds", 20, "length of each timed run in seconds")
	trace := flag.Int("trace", -1, "0: timed run only; 1: traced pass and isolated calls only; -1: both")
	repeat := flag.Int("repeat", 1, "run the whole set this many times")
	check := flag.Bool("check", false, "with -repeat 2: fail if the two sets differ by more than BENCHMARK.json's bounds")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for latest.json and the span files")
	flag.Parse()

	selected := specs
	if *workloadName != "" {
		s, ok := specByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []spec{s}
	}
	if *trace < -1 || *trace > 1 {
		return fmt.Errorf("-trace must be 0, 1 or -1")
	}
	if *seconds < 1 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	if *check && (*repeat != 2 || *trace == 1) {
		return fmt.Errorf("-check compares the timed runs of two sets: use -repeat 2 and not -trace 1")
	}
	var bounds *benchmarkFile
	if *check {
		var err error
		if bounds, err = loadBenchmarkFile("BENCHMARK.json"); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	rec := record{
		Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: *seed, TimedSeconds: *seconds, WarmUpSeconds: warmUp.Seconds(),
		Clients: loadClients, SetupRounds: setupRounds, Started: time.Now().UTC(),
	}
	timed, traced := *trace != 1, *trace != 0
	for set := 0; set < *repeat; set++ {
		var results []*result
		for _, s := range selected {
			// One workload must end well inside the driver's per-run
			// limit whatever the mediator does.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+2*time.Minute)
			res, err := runWorkload(ctx, s, *seed, *seconds, timed, traced, *outDir)
			cancel()
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			results = append(results, res)
		}
		rec.Sets = append(rec.Sets, results)
	}
	rec.WallSeconds = time.Since(rec.Started).Seconds()
	if err := writeJSON(filepath.Join(*outDir, "latest.json"), rec); err != nil {
		return err
	}

	if *check {
		if !printCheck(os.Stdout, bounds, rec.Sets[0], rec.Sets[1]) {
			return fmt.Errorf("the two sets differ by more than the bounds")
		}
	}
	if *workloadName != "" && *trace >= 0 {
		return printContractLine(rec.Sets[len(rec.Sets)-1][0], *trace == 1)
	}
	return nil
}

// record is the run record written to out/latest.json.
type record struct {
	Commit        string      `json:"commit"`
	GoVersion     string      `json:"goVersion"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	NumCPU        int         `json:"nproc"`
	Seed          int64       `json:"seed"`
	TimedSeconds  int         `json:"timedSeconds"`
	WarmUpSeconds float64     `json:"warmUpSeconds"`
	Clients       int         `json:"clients"`
	SetupRounds   int         `json:"setupRounds"`
	Started       time.Time   `json:"started"`
	WallSeconds   float64     `json:"wallSeconds"`
	Sets          [][]*result `json:"sets"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the code measured: the revision stamped into the binary,
// else the working directory's git HEAD, else "unknown" (the driver's
// checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// printContractLine prints the one-object summary a benchmark driver
// reads from the last line of standard output.
func printContractLine(res *result, perLayer bool) error {
	metrics := res.EndToEnd
	if perLayer {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
