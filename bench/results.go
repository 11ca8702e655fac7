package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchFile is the part of BENCHMARK.json the harness reads: the run
// length and every metric with its unit, direction and bound.
type benchFile struct {
	RunSeconds int           `json:"run_seconds"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(root string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// hostInfo records where a results file was measured.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Fsync      string `json:"fsync"`
	Seed       uint64 `json:"seed"`
}

func host(seed uint64) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Fsync:      "always",
		Seed:       seed,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resultsFile is one full invocation of wsbench run.
type resultsFile struct {
	Label     string                     `json:"label"`
	Host      hostInfo                   `json:"host"`
	Trials    int                        `json:"trials"`
	Setups    int                        `json:"setups_per_trial"`
	WarmupS   float64                    `json:"warmup_s"`
	OpenS     float64                    `json:"open_s"`
	ClosedS   float64                    `json:"closed_s"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's trials and their summary.
type workloadResult struct {
	Metrics      map[string]summary `json:"metrics"`
	Notes        []string           `json:"notes,omitempty"`
	GenLateP99Ms *float64           `json:"gen_late_ms_p99,omitempty"`
	Trials       []*trial           `json:"trials"`
	Trace        *traceResult       `json:"trace,omitempty"`
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
