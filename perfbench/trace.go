package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"unicache/internal/wal"
)

// Span names. Façade spans cover one Engine call; cb spans are the
// instant a callback received something; conn and wal spans cover one
// call on a wrapped connection or log file.
type spanName uint8

const (
	spInsertBatch spanName = iota
	spExec
	spSetupStep
	spAuth
	spWatchCB
	spEmitCB
	spClientRead
	spClientWrite
	spServerRead
	spServerWrite
	spWALWrite
	spWALSync
	spRecovery
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"facade.InsertBatch", "facade.Exec", "facade.setup", "facade.Auth",
	"cb.watch", "cb.emit",
	"conn.client.Read", "conn.client.Write", "conn.server.Read", "conn.server.Write",
	"wal.Write", "wal.Sync", "cache.reopen",
}

// maxSpans bounds the spans a traced run keeps in memory; later spans
// are counted but not kept.
const maxSpans = 1 << 18

// spanStride samples the kinds of span that come once per row or per
// connection call: one span in stride of each kind is kept, so a traced
// run's spans spread over the whole window (on every workload well under
// maxSpans in a 30 s run) instead of filling the buffer in its first
// seconds. Client-side connection writes made inside a façade call are
// kept exactly when that call's span is. The counters behind the
// per-layer metrics count every call, sampled or not.
var spanStride = [nSpanNames]int64{
	spInsertBatch: 32, spExec: 1, spSetupStep: 1, spAuth: 1,
	spWatchCB: 64, spEmitCB: 64,
	spClientRead: 64, spClientWrite: 64, spServerRead: 64, spServerWrite: 64,
	spWALWrite: 1, spWALSync: 1, spRecovery: 1,
}

// Values of tracedConn.facade besides a kept span's id.
const (
	noFacade      = -1 // no façade call is open on the connection
	sampledFacade = -2 // one is open, but its span was sampled out
)

type span struct {
	name       spanName
	parent     int32
	start, end int64
}

// tracer records spans at the seams the benchmark owns and the counters
// the per-layer metrics are computed from.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
	// seen counts the spans of each kind, kept or sampled out.
	seen [nSpanNames]atomic.Int64

	conn [nSpanNames]ioCount // client/server Read/Write
	wal  [nSpanNames]ioCount // wal Write/Sync
	// syncs are the WAL fsync durations (ns).
	syncMu sync.Mutex
	syncs  samples
}

// ioCount accumulates calls, bytes and time on one kind of I/O seam.
type ioCount struct {
	calls, bytes, ns atomic.Int64
}

func (c *ioCount) add(n int, ns int64) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	c.ns.Add(ns)
}

func newTracer() *tracer { return &tracer{} }

// reset drops everything recorded by a discarded set-up repetition.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = nil, 0
	t.mu.Unlock()
	for i := range t.seen {
		t.seen[i].Store(0)
	}
	t.zeroCounters()
}

// sample counts one span of a kind and reports whether it is kept.
func (t *tracer) sample(name spanName) bool {
	return (t.seen[name].Add(1)-1)%spanStride[name] == 0
}

// ioSnapshot is a copy of the I/O counters, connection and WAL alike.
type ioSnapshot [nSpanNames]struct{ calls, bytes, ns int64 }

func (t *tracer) snapshot() ioSnapshot {
	var s ioSnapshot
	for i := range s {
		c := &t.conn[i]
		if i == int(spWALWrite) || i == int(spWALSync) {
			c = &t.wal[i]
		}
		s[i].calls, s[i].bytes, s[i].ns = c.calls.Load(), c.bytes.Load(), c.ns.Load()
	}
	return s
}

// zeroCounters restarts the I/O counters at the start of the measured
// phase, so set-up traffic is not charged to the workload's events.
func (t *tracer) zeroCounters() {
	for i := range t.conn {
		t.conn[i].calls.Store(0)
		t.conn[i].bytes.Store(0)
		t.conn[i].ns.Store(0)
		t.wal[i].calls.Store(0)
		t.wal[i].bytes.Store(0)
		t.wal[i].ns.Store(0)
	}
	t.syncMu.Lock()
	t.syncs = nil
	t.syncMu.Unlock()
}

func (t *tracer) record(name spanName, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// begin opens a façade span, returning its id, or sampledFacade if the
// span is sampled out (or the buffer is full); end closes it.
func (t *tracer) begin(name spanName) int32 {
	if !t.sample(name) {
		return sampledFacade
	}
	start := now()
	if id := t.record(name, -1, start, start); id >= 0 {
		return id
	}
	return sampledFacade
}

func (t *tracer) end(id int32) {
	end := now()
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// instant records a callback receipt, sampled.
func (t *tracer) instant(name spanName, at int64) {
	if t.sample(name) {
		t.record(name, -1, at, at)
	}
}

// write stores the spans as JSON lines: one header line (spans kept,
// spans dropped because the buffer was full, and per kind the spans seen
// and the sampling stride), then one line per span with its id, name,
// parent id, start and end (ns on the benchmark clock).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	seen, stride := map[string]int64{}, map[string]int64{}
	for i, name := range spanNames {
		seen[name], stride[name] = t.seen[i].Load(), spanStride[i]
	}
	_ = enc.Encode(map[string]any{"spans": len(spans), "dropped": dropped, "seen": seen, "stride": stride})
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
	}
	for i, s := range spans {
		_ = enc.Encode(line{ID: i, Name: spanNames[s.name], Parent: s.parent, Start: s.start, End: s.end})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced wraps one façade call in a span when tracing.
func (r *run) traced(name spanName, fn func() error) error {
	return r.tracedOn(nil, name, fn)
}

// tracedOn wraps one façade call made over conn (nil for an embedded
// engine) in a span when tracing; the connection's writes during the
// call are the span's children. One goroutine at a time makes façade
// calls over a traced connection.
func (r *run) tracedOn(conn *tracedConn, name spanName, fn func() error) error {
	if r.tr == nil {
		return fn()
	}
	id := r.tr.begin(name)
	if conn != nil {
		conn.facade.Store(id)
		defer conn.facade.Store(noFacade)
	}
	err := fn()
	r.tr.end(id)
	return err
}

// --- wrapped connections ---

// tracedConn counts and spans every Read and Write on a connection.
type tracedConn struct {
	net.Conn
	t           *tracer
	read, write spanName
	// facade is the façade call open on the connection: a kept span's
	// id, noFacade or sampledFacade.
	facade atomic.Int32
}

func newTracedConn(c net.Conn, t *tracer, read, write spanName) *tracedConn {
	tc := &tracedConn{Conn: c, t: t, read: read, write: write}
	tc.facade.Store(noFacade)
	return tc
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := now()
	n, err := c.Conn.Read(p)
	end := now()
	c.t.conn[c.read].add(n, end-start)
	if c.t.sample(c.read) {
		c.t.record(c.read, -1, start, end)
	}
	return n, err
}

// Write spans a write. A write inside a façade call is kept with the
// call's span as its parent, or dropped with it; any other is sampled.
func (c *tracedConn) Write(p []byte) (int, error) {
	start := now()
	n, err := c.Conn.Write(p)
	end := now()
	c.t.conn[c.write].add(n, end-start)
	switch parent := c.facade.Load(); {
	case parent >= 0:
		c.t.seen[c.write].Add(1)
		c.t.record(c.write, parent, start, end)
	case parent == noFacade && c.t.sample(c.write):
		c.t.record(c.write, -1, start, end)
	case parent == sampledFacade:
		c.t.seen[c.write].Add(1)
	}
	return n, err
}

// tracedListener wraps every accepted connection.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, l.t, spServerRead, spServerWrite), nil
}

// --- wrapped WAL filesystem ---

// tracedFS passes every WAL filesystem call to the real one, wrapping
// the files it opens.
type tracedFS struct {
	wal.FS
	t *tracer
}

func (fs tracedFS) OpenAppend(path string) (wal.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t}, nil
}

type tracedFile struct {
	wal.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := now()
	n, err := f.File.Write(p)
	end := now()
	f.t.wal[spWALWrite].add(n, end-start)
	if f.t.sample(spWALWrite) {
		f.t.record(spWALWrite, -1, start, end)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	start := now()
	err := f.File.Sync()
	end := now()
	f.t.wal[spWALSync].add(0, end-start)
	if f.t.sample(spWALSync) {
		f.t.record(spWALSync, -1, start, end)
	}
	f.t.syncMu.Lock()
	f.t.syncs.add(end - start)
	f.t.syncMu.Unlock()
	return err
}
