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
	"strings"
)

// provenance records what a result was measured on: the code, the
// toolchain, the machine, the filesystem under the databases, and the
// workload's sizes.
func provenance(w workload, dir string, inst *instance, rounds int) map[string]any {
	pool := w.pool
	if pool == 0 {
		pool = 1024 // the store's and the client's default
	}
	p := map[string]any{
		"workload":         w.name,
		"backend":          w.backend,
		"level":            w.level,
		"nodes":            inst.lay.Total(),
		"remote":           w.remote,
		"pool_pages":       pool,
		"db_and_wal_bytes": inst.dbBytes,
		"rounds":           rounds,
		"iterations":       iterations,
		"commit":           gitCommit(),
		"source_sha256":    sourceDigest(),
		"go_version":       runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu_model":        cpuModel(),
		"work_fs":          filesystemOf(dir),
	}
	if w.remote {
		p["server_pool_pages"] = 1024
		p["client_conns"] = 1
	}
	return p
}

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the
// working directory, so a result names its code even where the
// checkout carries no git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
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

// filesystemOf names the filesystem type of the mount holding dir.
func filesystemOf(dir string) string {
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (dir == mnt || strings.HasPrefix(dir, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, kind = mnt, fields[2]
		}
	}
	return kind
}
