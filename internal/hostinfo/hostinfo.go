// Package hostinfo collects the host execution environment — Go
// toolchain, CPU topology, and (where readable) the CPU model — so that
// benchmark reports and service health reports carry enough metadata to
// be compared across machines.
package hostinfo

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"sync"
)

// Info describes the host a measurement ran on. All fields are
// best-effort: CPUModel is empty when the platform offers no readable
// source (non-Linux, restricted /proc).
type Info struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

var (
	once   sync.Once
	cached Info
)

// Collect gathers the host description. The result is computed once per
// process: every field is stable for the process lifetime except
// GOMAXPROCS, which is re-read on each call so runtime adjustments show
// up in later reports.
func Collect() Info {
	once.Do(func() {
		cached = Info{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			CPUModel:  cpuModel(),
		}
	})
	info := cached
	info.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return info
}

// cpuModel reads the CPU model string where the platform exposes one.
func cpuModel() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		// x86 names the model "model name"; several arm64 kernels only
		// provide "Hardware" or per-CPU "CPU part" lines — take the
		// first human-readable one we find.
		for _, key := range []string{"model name", "Hardware"} {
			if rest, ok := strings.CutPrefix(line, key); ok {
				if i := strings.IndexByte(rest, ':'); i >= 0 {
					return strings.TrimSpace(rest[i+1:])
				}
			}
		}
	}
	return ""
}
