package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"cbtc/internal/workload"
)

// fleetd-ingest sizing: the daemon's flags, the offered load of both
// connections, the warm-up excluded from every metric, and boot repeats.
const (
	ingestMembers         = 8
	ingestNodes           = 1000
	ingestTick            = "5ms"
	ingestPostsPerSecond  = 30
	ingestEventsPerPost   = 16
	ingestQueriesPerSec   = 10
	ingestCheckpointEvery = 2 * time.Second
	ingestWarmup          = time.Second
	ingestSetupReps       = 7
	ingestBootTimeout     = 60 * time.Second
	ingestStopTimeout     = 60 * time.Second
)

// daemon is one fleetd process serving on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string // state directory
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	log    syncBuffer
}

// syncBuffer collects the daemon's log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns fleetd over state directory dir. The child is
// killed if this process dies first.
func startDaemon(bin, dir string, seed uint64) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, dir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-checkpoint", filepath.Join(dir, "fleet.ckpt"),
		"-http", addr,
		"-m", strconv.Itoa(ingestMembers), "-n", strconv.Itoa(ingestNodes),
		"-kind", "uniform", "-tick", ingestTick, "-checkpoint-interval", "0",
		"-seed", strconv.FormatUint(seed, 10))
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls GET /healthz every millisecond until it answers
// 200, and returns the time since start.
func (d *daemon) waitHealthy(c *http.Client, start time.Time) (time.Duration, error) {
	deadline := start.Add(ingestBootTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("fleetd exited during boot: %v\n%s", d.err, d.log.String())
		default:
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("fleetd did not become healthy")
}

// stop sends SIGTERM (fleetd's graceful shutdown: final tick, final
// checkpoint, exit 0) and waits for the process to end.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("fleetd shutdown: %v\n%s", d.err, d.log.String())
		}
		return nil
	case <-time.After(ingestStopTimeout):
		d.kill()
		return errors.New("fleetd did not stop after SIGTERM")
	}
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// newClient is one keep-alive connection to the daemon. Proxies from
// the environment are ignored: the daemon is on loopback.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// healthz is the part of fleetd's /healthz the gates read.
type healthz struct {
	Quarantined        int   `json:"quarantined"`
	Applied            int64 `json:"applied"`
	Rejected           int64 `json:"rejected"`
	Dropped            int64 `json:"dropped"`
	Queued             int   `json:"queued"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
}

// fleetReport is the part of fleetd's /report the gates read.
type fleetReport struct {
	Networks, Preserved int
	Live, Edges, Events int
}

// ingestRun is what the two connections measured.
type ingestRun struct {
	posts                  []sample // timed posts, from the schedule start
	tracedPost             []bool
	healthz, network, ckpt []time.Duration // send → response
	queries                []time.Duration // due → response, GETs only
	queuedMax              int
	cpu                    time.Duration // fleetd CPU over the timed window
	windowPosts            int
	sentEvents             int
	failed                 int
	gateNotes              []string
}

func runIngest(cfg runConfig) (outcome, error) {
	bin := filepath.Join(cfg.buildDir, "fleetd")
	if _, err := os.Stat(bin); err != nil {
		return outcome{}, fmt.Errorf("fleetd binary: %w", err)
	}
	stateRoot := filepath.Join(cfg.buildDir, "state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return outcome{}, err
	}
	client := newClient()
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			_ = os.RemoveAll(dir) // best effort: the next run starts from fresh directories anyway
		}
	}()
	newDir := func() (string, error) {
		dir, err := os.MkdirTemp(stateRoot, "fleetd-")
		if err == nil {
			dirs = append(dirs, dir)
		}
		return dir, err
	}

	// Set-up: boot fleetd ingestSetupReps times on fresh state; the last
	// instance serves the run.
	setups := make([]float64, ingestSetupReps)
	var d *daemon
	for i := range setups {
		dir, err := newDir()
		if err != nil {
			return outcome{}, err
		}
		t := time.Now()
		d, err = startDaemon(bin, dir, cfg.seed)
		if err != nil {
			return outcome{}, err
		}
		boot, err := d.waitHealthy(client, t)
		if err != nil {
			d.kill()
			return outcome{}, err
		}
		setups[i] = boot.Seconds()
		if i < len(setups)-1 {
			if err := d.stop(); err != nil {
				return outcome{}, err
			}
		}
	}
	fmt.Fprintf(cfg.out, "fleetd state directory %s on %s\n", d.dir, fsName(d.dir))

	run, err := driveLoad(cfg, d)
	if err != nil {
		d.kill()
		return outcome{}, err
	}
	rss, err := procStatusMB(d.cmd.Process.Pid, "VmHWM")
	if err != nil {
		d.kill()
		return outcome{}, err
	}
	var g gates
	g.failed = run.failed
	g.notes = run.gateNotes
	walBytes, ckptBytes := fileSize(filepath.Join(d.dir, "fleet.ckpt.wal")), fileSize(filepath.Join(d.dir, "fleet.ckpt"))
	if err := ingestFinalGates(&g, client, d, bin, run.sentEvents, cfg.seed); err != nil {
		return outcome{}, err
	}

	timed := run.posts[len(run.posts)-run.windowPosts:]
	var lat, qs []float64
	for _, s := range timed {
		lat = append(lat, ms(s.latency()))
	}
	for _, q := range run.queries {
		qs = append(qs, ms(q))
	}
	offered := float64(ingestPostsPerSecond)
	achieved := sendRate(timed, time.Second/ingestPostsPerSecond)
	g.check(achieved >= 0.99*offered, "generator fell behind: sent %.3f posts/s of %v offered", achieved, offered)

	reads := len(run.healthz) + len(run.network) + len(run.ckpt)
	o := outcome{attempted: len(run.posts) + reads, failed: g.failed}
	if !cfg.trace {
		o.metrics = map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     ackRate(timed),
			"op_p50_ms":     percentile(lat, 50),
			"op_p90_ms":     percentile(lat, 90),
			"cpu_ms_per_op": ms(run.cpu) / float64(run.windowPosts),
			"peak_rss_mb":   rss,
			"query_p50_ms":  percentile(qs, 50),
			"query_p90_ms":  percentile(qs, 90),
		}
		o.notes = append(o.notes,
			fmt.Sprintf("post p99 %.4g ms over %d posts; query p99 %.4g ms over %d GETs", percentile(lat, 99), len(lat), percentile(qs, 99), len(qs)),
			fmt.Sprintf("generator sent %.4f posts/s (offered %v); %d events in %d posts", achieved, offered, run.sentEvents, len(run.posts)))
	} else {
		var notes []string
		o.metrics, notes = ingestLayers(run, timed, walBytes, ckptBytes)
		o.notes = append(o.notes, notes...)
	}
	o.notes = append(o.notes, g.notes...)
	return o, nil
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// ingestLayers folds a traced run into the per-layer metrics: each
// timed post is an op whose spans are the generator's lateness and
// fleetd's POST /events round trip; the GETs and forced checkpoints are
// timed per request beside it.
func ingestLayers(run ingestRun, timed []sample, walBytes, ckptBytes float64) (map[string]float64, []string) {
	rec := newRecorder()
	var tracedLat, plainLat []float64
	first := len(run.posts) - len(timed)
	for i, s := range timed {
		if !run.tracedPost[first+i] {
			plainLat = append(plainLat, ms(s.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(s.latency()))
		root := rec.add("op", i, -1, int64(s.due), int64(s.done))
		rec.add("loadgen.late_ms", i, root, int64(s.due), int64(s.sent))
		rec.add("fleetd.events_ms", i, root, int64(s.sent), int64(s.done))
	}
	b := layerBreakdown(rec.snapshot())
	m := zeroLayers()
	for name, ns := range b.selfNs {
		m[name] = inUnit(name, ns)
	}
	meanMs := func(ds []time.Duration) float64 {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, ms(d))
		}
		if len(xs) == 0 {
			return 0
		}
		return mean(xs)
	}
	m["fleetd.healthz_ms"] = meanMs(run.healthz)
	m["fleetd.network_ms"] = meanMs(run.network)
	m["fleetd.checkpoint_ms"] = meanMs(run.ckpt)
	m["fleetd.checkpoint_bytes"] = ckptBytes
	m["fleetd.wal_bytes_per_event"] = walBytes / float64(run.sentEvents)
	m["fleetd.queued_max"] = float64(run.queuedMax)
	m["remainder_ms"] = b.remainder / 1e6
	m["tracing_overhead_ms"] = percentile(tracedLat, 50) - percentile(plainLat, 50)
	return m, breakdownNotes(b, percentile(tracedLat, 50), percentile(plainLat, 50))
}

// driveLoad runs both connections' schedules against d: connection 1
// posts events, connection 2 reads and forces checkpoints.
func driveLoad(cfg runConfig, d *daemon) (ingestRun, error) {
	gen := newGenerator(cfg.seed, ingestMembers, ingestNodes)
	window := time.Duration(cfg.seconds) * time.Second
	nPosts := int((ingestWarmup + window) / (time.Second / ingestPostsPerSecond))
	nWarm := int(ingestWarmup / (time.Second / ingestPostsPerSecond))
	bodies := make([][]byte, nPosts)
	for k := range bodies {
		bodies[k] = body(gen.events(ingestEventsPerPost))
	}
	run := ingestRun{windowPosts: nPosts - nWarm, sentEvents: nPosts * ingestEventsPerPost, tracedPost: make([]bool, nPosts)}
	start := time.Now().Add(50 * time.Millisecond)
	posts := openLoop{start: start, period: time.Second / ingestPostsPerSecond, seed: workload.Mix(cfg.seed, 1)}
	reads := openLoop{start: start, period: time.Second / ingestQueriesPerSec, seed: workload.Mix(cfg.seed, 2)}
	pid := d.cmd.Process.Pid

	var (
		wg        sync.WaitGroup
		postErr   error
		readErr   error
		postFails []string
		readFails []string
		cpu0      time.Duration
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		for k := 0; k < nPosts; k++ {
			if k == nWarm {
				var err error
				if cpu0, err = procCPU(pid); err != nil {
					postErr = err
					return
				}
			}
			posts.wait(k)
			sent := time.Since(start)
			accepted, status, err := postEvents(c, d.base, bodies[k])
			done := time.Since(start)
			if err != nil {
				postErr = fmt.Errorf("post %d: %w", k, err)
				return
			}
			run.posts = append(run.posts, sample{due: posts.due(k).Sub(start), sent: sent, done: done})
			run.tracedPost[k] = k%2 == 0
			if status != http.StatusAccepted || accepted != ingestEventsPerPost {
				postFails = append(postFails, fmt.Sprintf("post %d: status %d, accepted %d of %d", k, status, accepted, ingestEventsPerPost))
			}
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			postErr = err
			return
		}
		run.cpu = cpu1 - cpu0
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		for _, r := range readSchedule(reads, ingestWarmup+window, ingestCheckpointEvery) {
			if d := time.Until(start.Add(r.due)); d > 0 {
				time.Sleep(d)
			}
			t := time.Now()
			var err error
			var status int
			switch {
			case r.ckpt:
				status, err = postCheckpoint(c, d.base)
				run.ckpt = append(run.ckpt, time.Since(t))
			case r.j%3 == 0:
				var h healthz
				status, err = getStatus(c, d.base+"/healthz", &h)
				run.healthz = append(run.healthz, time.Since(t))
				run.queuedMax = max(run.queuedMax, h.Queued)
			default:
				var nr struct{ Preserved bool }
				net := len(run.network) % ingestMembers
				status, err = getStatus(c, d.base+"/network/"+strconv.Itoa(net), &nr)
				run.network = append(run.network, time.Since(t))
				if err == nil && status == http.StatusOK && !nr.Preserved {
					readFails = append(readFails, fmt.Sprintf("GET /network/%d: topology does not preserve G_R's partition", net))
				}
			}
			if err != nil {
				readErr = err
				return
			}
			if status != http.StatusOK {
				readFails = append(readFails, fmt.Sprintf("read %+v: status %d", r, status))
			}
			if !r.ckpt && r.due >= ingestWarmup {
				run.queries = append(run.queries, time.Since(start.Add(r.due)))
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(postErr, readErr); err != nil {
		return run, err
	}
	run.failed = len(postFails) + len(readFails)
	run.gateNotes = append(postFails, readFails...)
	for i, n := range run.gateNotes {
		run.gateNotes[i] = "GATE FAILED: " + n
	}
	return run, nil
}

// readOp is one request of connection 2: GET j or a forced checkpoint.
// Every third GET is /healthz and the others are /network/{i}, i
// cycling over the members. A 1:1 mix would put the median read between
// the two requests' latency clusters, where it jumps from run to run
// with the tail of the faster one.
type readOp struct {
	due  time.Duration
	ckpt bool
	j    int
}

// readSchedule lays out connection 2's requests over span: the GETs of
// the reads schedule, and a POST /checkpoint three quarters of a read
// period after every multiple of every — after the GET of that period,
// whose jitter is under half a period — all in due order.
func readSchedule(reads openLoop, span, every time.Duration) []readOp {
	var out []readOp
	nextCkpt := every + 3*reads.period/4
	for j := 0; time.Duration(j)*reads.period < span; j++ {
		due := reads.offset(j)
		for ; nextCkpt < due; nextCkpt += every {
			out = append(out, readOp{due: nextCkpt, ckpt: true})
		}
		out = append(out, readOp{due: due, j: j})
	}
	return out
}

// postEvents sends one POST /events and returns fleetd's accepted count.
func postEvents(c *http.Client, base string, b []byte) (accepted, status int, err error) {
	resp, err := c.Post(base+"/events", "application/x-ndjson", bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var r struct {
		Accepted int `json:"accepted"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, resp.StatusCode, err
		}
	}
	return r.Accepted, resp.StatusCode, nil
}

func postCheckpoint(c *http.Client, base string) (int, error) {
	resp, err := c.Post(base+"/checkpoint", "text/plain", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// getStatus fetches url, decoding a 200 body into v.
func getStatus(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(b, v)
}

// getJSON is getStatus for reads that must succeed.
func getJSON(c *http.Client, url string, v any) error {
	status, err := getStatus(c, url, v)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, status)
	}
	return err
}

// ingestFinalGates checks the daemon after the timed window, untimed:
// every event applied and nothing rejected, dropped or quarantined,
// every member preserving G_R's partition, and a SIGTERM plus restart
// reproducing /report's Live/Edges/Events exactly. It stops d and the
// restarted daemon.
func ingestFinalGates(g *gates, c *http.Client, d *daemon, bin string, sent int, seed uint64) error {
	var h healthz
	if err := getJSON(c, d.base+"/healthz", &h); err != nil {
		d.kill()
		return err
	}
	g.check(h.Applied == int64(sent), "/healthz applied %d, sent %d", h.Applied, sent)
	g.check(h.Rejected == 0 && h.Dropped == 0 && h.Quarantined == 0 && h.CheckpointFailures == 0,
		"/healthz rejected %d dropped %d quarantined %d checkpoint_failures %d", h.Rejected, h.Dropped, h.Quarantined, h.CheckpointFailures)
	var before fleetReport
	if err := getJSON(c, d.base+"/report", &before); err != nil {
		d.kill()
		return err
	}
	g.check(before.Preserved == before.Networks, "/report Preserved %d ≠ Networks %d", before.Preserved, before.Networks)
	if err := d.stop(); err != nil {
		return err
	}
	t := time.Now()
	again, err := startDaemon(bin, d.dir, seed)
	if err != nil {
		return err
	}
	if _, err := again.waitHealthy(c, t); err != nil {
		again.kill()
		return err
	}
	var after fleetReport
	if err := getJSON(c, again.base+"/report", &after); err != nil {
		again.kill()
		return err
	}
	g.check(after.Live == before.Live && after.Edges == before.Edges && after.Events == before.Events,
		"restart changed /report: Live/Edges/Events %d/%d/%d → %d/%d/%d",
		before.Live, before.Edges, before.Events, after.Live, after.Edges, after.Events)
	return again.stop()
}
