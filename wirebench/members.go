package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"routebricks/internal/mesh"
)

// memberGOMAXPROCS is set in every member's environment (to the Go
// default, one P per CPU) so the fingerprint records what the members
// ran with.
var memberGOMAXPROCS = strconv.Itoa(runtime.NumCPU())

// meshCluster is one booted 2-member rbrouter mesh: unmodified
// `rbrouter -mesh topo.json -mesh-id K -cores 1 -config router.click`
// processes, driven only through their flags and admin API.
type meshCluster struct {
	procs []*exec.Cmd
	exits []chan error
	ext   []*net.UDPAddr
	api   []string
	http  *http.Client
}

// startCluster writes a fresh loopback topology whose sink is the
// benchmark's socket and launches both members.
func startCluster(env *runEnv, sink *net.UDPAddr) (*meshCluster, error) {
	topo, err := mesh.GenerateLocal(nodes)
	if err != nil {
		return nil, err
	}
	// Fast heartbeats so convergence is quick; a generous dead timeout
	// so a scheduling stall under load never re-stripes the mesh.
	topo.HeartbeatMs, topo.SuspectAfterMs, topo.DeadAfterMs = 5, 1000, 5000
	topo.Sink = sink.String()
	path := filepath.Join(env.out, "topo.json")
	if err := topo.WriteFile(path); err != nil {
		return nil, err
	}
	c := &meshCluster{
		http: &http.Client{
			Timeout:   20 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	for id, m := range topo.Members {
		ua, err := net.ResolveUDPAddr("udp4", m.Ext)
		if err != nil {
			return nil, err
		}
		c.ext = append(c.ext, ua)
		c.api = append(c.api, "http://"+m.API)
		logf, err := os.Create(filepath.Join(env.out, fmt.Sprintf("member%d.log", id)))
		if err != nil {
			c.stop()
			return nil, err
		}
		cmd := exec.Command(env.rbrouter, "-mesh", path, "-mesh-id", strconv.Itoa(id),
			"-cores", "1", "-config", env.clickPath)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+memberGOMAXPROCS)
		if err := cmd.Start(); err != nil {
			logf.Close()
			c.stop()
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait(); logf.Close() }()
		c.procs = append(c.procs, cmd)
		c.exits = append(c.exits, done)
	}
	return c, nil
}

// alive reports an error if a member has exited.
func (c *meshCluster) alive() error {
	for id, done := range c.exits {
		select {
		case err := <-done:
			done <- err
			return fmt.Errorf("member %d exited: %v", id, err)
		default:
		}
	}
	return nil
}

// stop terminates every member gracefully (SIGTERM, then SIGKILL after
// a grace period) and waits until each has ended.
func (c *meshCluster) stop() {
	for _, p := range c.procs {
		p.Process.Signal(syscall.SIGTERM)
	}
	for i, done := range c.exits {
		select {
		case err := <-done:
			done <- err
		case <-time.After(5 * time.Second):
			c.procs[i].Process.Kill()
			err := <-done
			done <- err
		}
	}
	c.http.CloseIdleConnections()
}

func (c *meshCluster) getJSON(member int, path string, v any) error {
	resp, err := c.http.Get(c.api[member] + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// meshDoc is the slice of /api/v1/mesh the benchmark reads.
type meshDoc struct {
	Peers []struct {
		ID       int     `json:"id"`
		State    string  `json:"state"`
		RTTMicro float64 `json:"rtt_us"`
		Observed uint64  `json:"observed"`
	} `json:"peers"`
}

// converged reports whether every member sees every peer alive with a
// measured heartbeat RTT, and the mean smoothed RTT.
func (c *meshCluster) converged() (bool, float64) {
	var sum float64
	var n int
	for id := range c.api {
		var d meshDoc
		if err := c.getJSON(id, "/api/v1/mesh", &d); err != nil {
			return false, 0
		}
		for _, p := range d.Peers {
			if p.ID == id {
				continue
			}
			if p.State != "alive" || p.Observed == 0 || p.RTTMicro == 0 {
				return false, 0
			}
			sum += p.RTTMicro
			n++
		}
	}
	return n > 0, sum / float64(n)
}

// waitConverged polls /api/v1/mesh until the membership view is whole.
func (c *meshCluster) waitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := c.alive(); err != nil {
			return err
		}
		if ok, _ := c.converged(); ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mesh did not converge within %v", timeout)
}

// postRoutes commits one FIB batch on a member through /api/v1/routes.
// Every route the benchmark installs has next hop 0.
func (c *meshCluster) postRoutes(member int, add, withdraw []netip.Prefix) error {
	type route struct {
		Prefix  string `json:"prefix"`
		NextHop int    `json:"next_hop"`
	}
	body := struct {
		Add      []route  `json:"add,omitempty"`
		Withdraw []string `json:"withdraw,omitempty"`
	}{}
	for _, p := range add {
		body.Add = append(body.Add, route{p.String(), 0})
	}
	for _, p := range withdraw {
		body.Withdraw = append(body.Withdraw, p.String())
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.api[member]+"/api/v1/routes", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST routes: HTTP %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// memberStats is the slice of one member's /api/v1/stats entry the
// benchmark reads.
type memberStats struct {
	Ingress struct {
		Rejected      uint64 `json:"rejected"`
		FIBGeneration uint64 `json:"fib_generation"`
		FIBRoutes     int    `json:"fib_routes"`
		Pool          struct {
			Gets uint64 `json:"gets"`
			Hits uint64 `json:"hits"`
		} `json:"pool"`
		Wire *struct {
			Mode      string `json:"mode"`
			RxBatches uint64 `json:"rx_batches"`
			RxFrames  uint64 `json:"rx_frames"`
			TxBatches uint64 `json:"tx_batches"`
			TxFrames  uint64 `json:"tx_frames"`
		} `json:"wire"`
		CoreStats []struct {
			Packets uint64 `json:"packets"`
			Polls   uint64 `json:"polls"`
			Empty   uint64 `json:"empty"`
		} `json:"core_stats"`
	} `json:"ingress"`
	TransitPackets uint64 `json:"transit_packets"`
	RouteMisses    uint64 `json:"route_misses"`
	HeaderDrops    uint64 `json:"header_drops"`
	RxDrops        uint64 `json:"rx_drops"`
	TxStalls       uint64 `json:"tx_stalls"`
	TxDrained      uint64 `json:"tx_drained"`
	Restripes      uint64 `json:"restripes"`
}

// stats fetches every member's node snapshot.
func (c *meshCluster) stats() ([]memberStats, error) {
	out := make([]memberStats, len(c.api))
	for id := range c.api {
		var doc []memberStats
		if err := c.getJSON(id, "/api/v1/stats", &doc); err != nil {
			return nil, err
		}
		if len(doc) != 1 {
			return nil, fmt.Errorf("member %d: stats document has %d nodes, want 1", id, len(doc))
		}
		out[id] = doc[0]
	}
	return out, nil
}

// cpuTicks sums user+system CPU time of every member, in clock ticks.
func (c *meshCluster) cpuTicks() (uint64, error) {
	var sum uint64
	for _, p := range c.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		s := string(raw)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", p.Process.Pid)
		}
		ut, _ := strconv.ParseUint(f[11], 10, 64)
		st, _ := strconv.ParseUint(f[12], 10, 64)
		sum += ut + st
	}
	return sum, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 100

// peakRSSMB sums the members' peak resident set (VmHWM).
func (c *meshCluster) peakRSSMB() (float64, error) {
	var kb float64
	for _, p := range c.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, ln := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(ln, "VmHWM:") {
				f := strings.Fields(ln)
				v, _ := strconv.ParseFloat(f[1], 64)
				kb += v
			}
		}
	}
	return kb / 1024, nil
}
