package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one child process; a whole pass must end within
// three minutes.
const childTimeout = 170 * time.Second

// runner runs each workload pass as a series of fresh child processes,
// one at a time, and reports the pass's metrics.
type runner struct {
	stdout, stderr io.Writer
	// exe is the program re-run as each child.
	exe  string
	pins map[pinKey]string
	// results is the file each run is appended to; children's scratch
	// directories and the Chrome traces go beside it.
	results string
	// homes overrides each workload's per-child home count when > 0
	// (tests run small fleets).
	homes int
}

// hostFacts describes where a run was measured.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostFacts {
	h := hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runRecord is one pass over one workload, as the results file keeps
// it.
type runRecord struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Seed       uint64            `json:"seed"`
	Homes      int               `json:"homes"`
	StartedNS  int64             `json:"started_unix_ns"`
	Seconds    float64           `json:"seconds"`
	Children   int               `json:"children"`
	Host       hostFacts         `json:"host"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailedFrac float64           `json:"failed_frac"`
	Digest     string            `json:"digest,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]sample `json:"metrics"`
	// HostSpeed is the median of the children's speed factors, and
	// Unscaled the medians of the scaled metrics as the clock read them
	// (untraced pass only).
	HostSpeed float64            `json:"host_speed,omitempty"`
	Unscaled  map[string]float64 `json:"unscaled,omitempty"`
}

// resultsFile is the results JSON: every run appended in order.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// childRun is one finished child: its own report plus what the parent
// measured of it.
type childRun struct {
	res               childResult
	wallS, cpuS, rssM float64
	// speed is refProbeS over the mean host probe around the child: the
	// factor that scales its times to the reference host speed.
	speed float64
}

// spawn runs one child to completion. Its wall time runs from exec to
// exit; CPU and peak RSS come from the kernel's accounting of it.
func (r *runner) spawn(ctx context.Context, spec childSpec) (childRun, error) {
	dir, err := os.MkdirTemp(filepath.Dir(r.results), "child-")
	if err != nil {
		return childRun{}, err
	}
	defer os.RemoveAll(dir)
	spec.Dir = dir
	js, err := json.Marshal(spec)
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = r.stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", spec.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childRun{}, fmt.Errorf("%s child: unreadable result: %w", spec.Workload, err)
	}
	ps := cmd.ProcessState
	return childRun{
		res:   res,
		wallS: wall.Seconds(),
		cpuS:  (ps.UserTime() + ps.SystemTime()).Seconds(),
		rssM:  peakRSSMB(ps),
	}, nil
}

// runPass measures one workload for about seconds: it starts children
// one after another, with a host probe before the first and after each,
// until the next would end past seconds (at least one), and reports
// each metric's median over them.
func (r *runner) runPass(ctx context.Context, w workload, seed uint64, seconds float64, traced bool) runRecord {
	homes := w.homes
	if r.homes > 0 {
		homes = r.homes
	}
	attempted := homes
	if traced {
		attempted = tracedHomes(homes)
	}
	rec := runRecord{
		Workload: w.name, Traced: traced, Seed: seed, Homes: homes,
		StartedNS: time.Now().UnixNano(), Host: host(), Metrics: map[string]sample{},
	}
	start := time.Now()
	var runs []childRun
	var durs []float64
	probe := hostProbe()
	for {
		spec := childSpec{Traced: traced, Workload: w.name, Seed: seed, Homes: homes}
		if traced {
			spec.TraceOut = filepath.Join(filepath.Dir(r.results), "bench-trace-"+w.name+".json")
		}
		t0 := time.Now()
		cr, err := r.spawn(ctx, spec)
		if err != nil {
			rec.Attempted += attempted
			rec.Failed += attempted
			rec.Problems = append(rec.Problems, err.Error())
			break
		}
		after := hostProbe()
		durs = append(durs, time.Since(t0).Seconds())
		cr.speed = refProbeS / ((probe + after) / 2)
		probe = after
		runs = append(runs, cr)
		if time.Since(start).Seconds()+median(durs) > seconds {
			break
		}
	}
	rec.Seconds = time.Since(start).Seconds()
	rec.Children = len(runs)
	rec.account(runs)
	if len(runs) > 0 {
		if traced {
			r.layerMetrics(&rec, runs)
		} else {
			r.endToEndMetrics(&rec, runs, w)
		}
	}
	rec.Correct = len(runs) > 0 && len(rec.Problems) == 0
	return rec
}

// account adds the children's homes attempted and failed, and their
// failed output checks, to the record.
func (rec *runRecord) account(runs []childRun) {
	for _, c := range runs {
		rec.Attempted += c.res.Attempted
		rec.Failed += c.res.Failed
		rec.Problems = append(rec.Problems, c.res.Problems...)
	}
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
}

// endToEndMetrics reduces the untraced children and checks their
// output: every child must compute the same fleet section, and at a
// pinned seed and size it must be the pinned one.
func (r *runner) endToEndMetrics(rec *runRecord, runs []childRun, w workload) {
	var setup, wall, hps, cpu, rss, speed, rawWall, rawHPS, rawCPU []float64
	for _, c := range runs {
		if c.res.Digest != runs[0].res.Digest {
			rec.Problems = append(rec.Problems, "child processes disagree on the fleet digest")
		}
		if c.res.SimS <= 0 {
			continue // the child failed before its run; its problems say why
		}
		// setup_s is not scaled: the two-threaded surface build slows
		// by half as much as the probe, so scaling would not steady it.
		setup = append(setup, c.res.SetupS)
		wall = append(wall, c.wallS*c.speed)
		hps = append(hps, float64(rec.Homes)/(c.res.SimS*c.speed))
		cpu = append(cpu, c.cpuS*c.speed)
		rss = append(rss, c.rssM)
		speed = append(speed, c.speed)
		rawWall = append(rawWall, c.wallS)
		rawHPS = append(rawHPS, float64(rec.Homes)/c.res.SimS)
		rawCPU = append(rawCPU, c.cpuS)
	}
	for name, xs := range map[string][]float64{
		"setup_s": setup, "wall_s": wall, "homes_per_s": hps, "cpu_s": cpu, "peak_rss_mb": rss,
	} {
		if len(xs) > 0 {
			m, _ := lookupMetric(name)
			rec.Metrics[name] = sample{Value: median(xs), Unit: m.unit, Samples: len(xs)}
		}
	}
	if len(speed) > 0 {
		rec.HostSpeed = median(speed)
		rec.Unscaled = map[string]float64{"wall_s": median(rawWall), "homes_per_s": median(rawHPS), "cpu_s": median(rawCPU)}
		fmt.Fprintf(r.stderr, "%s: host speed %.3f of the reference; unscaled wall_s %.4g, homes_per_s %.4g, cpu_s %.4g\n",
			w.name, rec.HostSpeed, rec.Unscaled["wall_s"], rec.Unscaled["homes_per_s"], rec.Unscaled["cpu_s"])
	}
	rec.Digest = runs[0].res.Digest
	fmt.Fprintf(r.stderr, "%s: fleet digest %s (seed %d, %d homes per child)\n", w.name, rec.Digest, rec.Seed, rec.Homes)
	if pin, ok := r.pins[pinKey{w.name, rec.Seed, rec.Homes}]; ok && rec.Digest != "" && rec.Digest != pin {
		rec.Problems = append(rec.Problems, fmt.Sprintf("fleet digest %s, pinned %s", rec.Digest, pin))
	}
}

// layerMetrics reduces the traced children: each metric's median over
// the children that reported it.
func (r *runner) layerMetrics(rec *runRecord, runs []childRun) {
	for _, m := range perLayer {
		var xs []float64
		n := 0
		for _, c := range runs {
			if s, ok := c.res.Layers[m.name]; ok {
				xs = append(xs, s.Value)
				n += s.Samples
			}
		}
		if len(xs) > 0 {
			rec.Metrics[m.name] = sample{Value: median(xs), Unit: m.unit, Samples: n}
		}
	}
}

// print writes one line per metric — "workload metric value unit" —
// then the pass's result as one JSON object on the last line.
func (r *runner) print(rec runRecord) {
	metrics := endToEnd
	if rec.Traced {
		metrics = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, m := range metrics {
		if s, ok := rec.Metrics[m.name]; ok {
			fmt.Fprintf(r.stdout, "%s %s %s %s\n", rec.Workload, m.name, strconv.FormatFloat(s.Value, 'g', -1, 64), m.unit)
			line.Metrics[m.name] = value{s.Value, m.unit}
		}
	}
	fmt.Fprintf(r.stdout, "%s failed_frac %s ratio\n", rec.Workload, strconv.FormatFloat(rec.FailedFrac, 'g', -1, 64))
	for _, p := range rec.Problems {
		fmt.Fprintf(r.stderr, "%s: check failed: %s\n", rec.Workload, p)
	}
	js, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(r.stderr, "bench: %v\n", err)
		return
	}
	fmt.Fprintf(r.stdout, "%s\n", js)
}

// appendResult adds rec to the results file, replacing it atomically.
func (r *runner) appendResult(rec runRecord) error {
	var rf resultsFile
	if b, err := os.ReadFile(r.results); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("reading %s: %w", r.results, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	tmp, err := os.CreateTemp(filepath.Dir(r.results), "results-*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	err = enc.Encode(rf)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), r.results)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", r.results, err)
	}
	return nil
}

// runAll runs the traced and untraced passes asked for on each named
// workload. It returns the process exit code: 2 if a workload was
// unknown or refused (the others still run), else 1 if any output check
// failed.
func (r *runner) runAll(ctx context.Context, names []string, seed uint64, seconds float64, passes []bool) int {
	if err := os.MkdirAll(filepath.Dir(r.results), 0o755); err != nil {
		fmt.Fprintf(r.stderr, "bench: %v\n", err)
		return 1
	}
	code, refused := 0, false
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(r.stderr, "bench: unknown workload %q\n", name)
			refused = true
			continue
		}
		if procs := runtime.GOMAXPROCS(0); w.workers > procs {
			fmt.Fprintf(r.stderr, "bench: refusing %s: it measures %d workers and GOMAXPROCS=%d, so its throughput would not be the sharded path's\n",
				w.name, w.workers, procs)
			refused = true
			continue
		}
		for _, traced := range passes {
			rec := r.runPass(ctx, w, seed, seconds, traced)
			if err := r.appendResult(rec); err != nil {
				fmt.Fprintf(r.stderr, "bench: %v\n", err)
				code = 1
			}
			r.print(rec)
			if !rec.Correct {
				code = 1
			}
		}
	}
	if refused {
		return 2
	}
	return code
}
