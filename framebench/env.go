package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runStamp identifies the machine, toolchain, inputs and code a result came
// from.
type runStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	// Commit is the git HEAD when run inside a git checkout, else "unknown".
	Commit string `json:"commit"`
	// SourceDigest is a SHA-256 over every .go and go.mod file under the
	// working directory, which identifies the code outside git too.
	SourceDigest string `json:"source_digest"`
}

func stamp(seed int64) runStamp {
	return runStamp{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Seed:         seed,
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
	}
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// total and the steal, the time a virtual CPU was runnable but the host ran
// something else. ok is false where they cannot be read.
func cpuTicks() (total, steal int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range fields[1:] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
