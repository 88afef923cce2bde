package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// host describes the machine a run measured, so that figures from
// different hosts are not compared as if they were one.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StealTicks is the hypervisor steal time, in USER_HZ ticks summed
	// over all CPUs, that /proc/stat accrued during the run; -1 where
	// /proc/stat is unreadable.
	StealTicks int64 `json:"steal_ticks"`
}

func newHost() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealTicks: -1,
	}
}

func (h host) String() string {
	b, _ := json.Marshal(h) // plain struct of strings and ints: cannot fail
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line of /proc/stat); ok is false where it is unavailable.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}
