package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"znn/internal/fft"
)

// fingerprint names the host and build a result was measured on. Results are
// comparable only when the host fields agree; the commit and the seed
// identify the run.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	GHz        float64 `json:"ghz"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	KernelPath string  `json:"kernel_path"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
}

var ghzInName = regexp.MustCompile(`([0-9.]+)\s*GHz`)

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		KernelPath: fft.KernelPath(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		fp.CPU, fp.GHz = parseCPUInfo(string(data))
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// parseCPUInfo takes the model name and the clock from /proc/cpuinfo: the
// nominal clock in the model name when it has one, else the first "cpu MHz".
func parseCPUInfo(s string) (model string, ghz float64) {
	model = "unknown"
	var mhz float64
	for _, line := range strings.Split(s, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "model name" && model == "unknown":
			model = val
		case key == "cpu MHz" && mhz == 0:
			mhz, _ = strconv.ParseFloat(val, 64)
		}
	}
	if m := ghzInName.FindStringSubmatch(model); m != nil {
		ghz, _ = strconv.ParseFloat(m[1], 64)
	} else {
		ghz = float64(int(mhz/10+0.5)) / 100
	}
	return model, ghz
}

// sameHost reports how two fingerprints differ in the fields that decide
// whether their numbers may be compared; nil means they may.
func sameHost(a, b fingerprint) error {
	var diffs []string
	add := func(field string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	add("cpu", a.CPU, b.CPU)
	add("ghz", a.GHz, b.GHz)
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("kernel_path", a.KernelPath, b.KernelPath)
	if diffs != nil {
		return fmt.Errorf("results come from different hosts or builds (%s)", strings.Join(diffs, "; "))
	}
	return nil
}
