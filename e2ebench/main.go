// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public packages, checks the
// outputs, and prints one JSON result line:
//
//	e2ebench --workload sim_paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// all tracing off. With --trace 1 it carries the per-layer metrics: a CPU
// and heap profile attributed by package, the proxy's span ring, an
// instrumented upstream transport, and per-layer microbenchmarks.
//
// Every run prints the host fingerprint first and the JSON result last.
// Any failed output check makes the run exit non-zero. README.md lists
// the workloads, the metrics and the seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings a workload receives.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// report collects one workload's metrics and failed output checks.
type report struct {
	attempted, failed uint64
	metrics           map[string]metric
	problems          []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed output check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, io.Writer) (*report, error){
	"sim_paper":     runSimPaper,
	"proxy_forward": runProxyForward,
	"proxy_ntier":   runProxyNTier,
}

// defaultSeed is the seed used while the benchmark was written;
// holdoutSeed was kept out of every tuning run (README.md).
const (
	defaultSeed = 1
	holdoutSeed = 20170605
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (hold-out seed: %d)", uint64(holdoutSeed)))
	seconds := fs.Float64("seconds", 30, "measured wall-clock seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
	}
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s net=loopback conns=%d workload=%s seed=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), genConns, *name, opt.seed, *traceFlag)
	rep, err := runner(opt, stdout)
	if err != nil {
		return err
	}
	if opt.trace {
		rep.checkDeclared(perLayer)
	} else {
		rep.checkDeclared(endToEnd)
	}
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "check failed:", p)
		}
		return errors.New("output checks failed")
	}
	line, err := json.Marshal(result{
		Correct:   true,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// splitmix derives independent sub-seeds from the workload seed, so
// every random input of a run follows from --seed alone.
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// median returns the median of xs (zero when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeSetups runs setup n times and returns the median wall time in
// seconds. Each setup starts from a collected heap so earlier garbage
// does not bill its collection to the next setup.
func timeSetups(n int, setup func() (teardown func(), err error)) (float64, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		teardown()
	}
	return median(secs), nil
}
