package main

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"unicache"
	"unicache/internal/rpc"
	"unicache/internal/tenant"
	"unicache/perfbench/ref"
)

// remote-ingest: one producer inserts single rows, closed loop, over one
// tenant-authenticated TCP loopback connection to an in-process server.
// The server pushes every row back over the same connection to a watch
// tap, and every 16th row's send() from a small automaton. The wire, the
// RPC server, tenant scoping and the push path do nearly all the work.
const (
	remoteKeys    = 64
	remoteModulus = 16 // the emit automaton sends every 16th row
	benchTenant   = "bench"
	benchToken    = "bench-token"
)

type remoteIngest struct {
	srvEngine *unicache.Embedded
	srv       *rpc.Server
	rem       *unicache.Remote
	// conn is the client side of rem's connection on a traced run.
	conn   *tracedConn
	gen    rowGen
	sent   atomic.Int64
	tap    *tap
	watch  unicache.Watch
	auto   unicache.Automaton
	out    *outputs
	emits  *emitCheck
	authNS int64
}

// tenants is the server's registry: the benchmark's tenant and a
// neighbour whose table the benchmark must never see.
func tenants() (*tenant.Registry, error) {
	return tenant.NewRegistry(
		tenant.Spec{Name: benchTenant, Token: benchToken},
		tenant.Spec{Name: "neighbour", Token: "neighbour-token"},
	)
}

// serve starts an in-process server over engine on a loopback listener;
// on a traced run the server side of every connection is wrapped.
func serve(r *run, engine *unicache.Embedded) (*rpc.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := rpc.NewServer(engine.Cache())
	var serveLn net.Listener = ln
	if r.tr != nil {
		serveLn = &tracedListener{Listener: ln, t: r.tr}
	}
	go srv.Serve(serveLn)
	return srv, ln.Addr().String(), nil
}

// dialTenant opens one connection to addr and authenticates it as the
// benchmark's tenant, returning the engine over it, the wrapped client
// side of the connection on a traced run (nil otherwise) and the
// handshake time.
func dialTenant(r *run, addr string) (*unicache.Remote, *tracedConn, int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, 0, err
	}
	var tc *tracedConn
	if r.tr != nil {
		tc = newTracedConn(conn, r.tr, spClientRead, spClientWrite)
		conn = tc
	}
	rem := unicache.NewRemote(conn)
	t0 := now()
	err = r.tracedOn(tc, spAuth, func() error {
		name, err := rem.Auth(benchToken)
		if err == nil && name != benchTenant {
			err = fmt.Errorf("authenticated as %q", name)
		}
		return err
	})
	authNS := now() - t0
	if err != nil {
		rem.Close()
		return nil, nil, 0, fmt.Errorf("auth: %w", err)
	}
	return rem, tc, authNS, nil
}

func setupRemoteIngest(r *run) (env, error) {
	c := &remoteIngest{gen: r.rowGen("remote", keyNames("t", remoteKeys), 0)}
	err := r.traced(spSetupStep, func() error {
		reg, err := tenants()
		if err != nil {
			return err
		}
		c.srvEngine, err = unicache.NewEmbedded(unicache.Config{Tenants: reg})
		if err != nil {
			return err
		}
		neighbour, err := c.srvEngine.Tenant("neighbour")
		if err != nil {
			return err
		}
		if err := neighbour.CreateTable(streamSchema("Secret")); err != nil {
			return err
		}
		var addr string
		if c.srv, addr, err = serve(r, c.srvEngine); err != nil {
			return err
		}
		if c.rem, c.conn, c.authNS, err = dialTenant(r, addr); err != nil {
			return err
		}
		if err := c.rem.CreateTable(streamSchema("Ticks")); err != nil {
			return err
		}
		c.tap = newTap(r, "Ticks", c.gen.upTo(&c.sent))
		if c.watch, err = c.rem.Watch("Ticks", c.tap.observe); err != nil {
			return err
		}
		c.auto, err = c.rem.Register(emitProgram("Ticks", remoteModulus), outputBuffer)
		return err
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.emits = newEmitCheck(r, "emit automaton", remoteModulus)
	c.out = collect(r, c.auto, c.emits.observe)
	return c, nil
}

func (c *remoteIngest) close() {
	if c.rem != nil {
		c.rem.Close()
	}
	if c.srv != nil {
		c.srv.Close()
	}
	if c.srvEngine != nil {
		c.srvEngine.Close()
	}
}

func (c *remoteIngest) measure(r *run) error {
	defer c.close()
	// The tenant sees exactly its own logical names and the shared Timer
	// (compared as a set: the order Tables returns is not checked here).
	tables, err := c.rem.Tables()
	got := append([]string(nil), tables...)
	sort.Strings(got)
	if want := []string{"Ticks", "Timer"}; err != nil || !reflect.DeepEqual(got, want) {
		r.fail("tenant tables: %v (%v), want %v", tables, err, want)
	}

	ins := r.op("insert")
	start := now() + int64(10*time.Millisecond)
	r.window(start + int64(warmup))
	stop := r.we + int64(tail)
	if r.tr != nil {
		r.tr.zeroCounters()
		c.tap.record(replayRows)
	}
	// Queue depths are read from the server's engine, so the connection
	// carries nothing but the workload's own traffic.
	depth := r.sampleDepths(c.srvEngine)
	use := r.watchUsage()

	// Closed loop: each single-row InsertBatch is issued as soon as the
	// previous one returned. The client encodes the row before the call
	// returns and keeps nothing, so one row buffer serves every call.
	var ack lat
	var late hist
	var events done
	var id int64
	batch := batchRows(1)
	sleepUntil(start)
	last := now()
	for last < stop {
		id++
		t0 := now()
		late.add(t0 - last)
		c.sent.Store(id)
		c.gen.row(id).fill(batch[0], t0)
		ins.attempted.Add(1)
		err := r.tracedOn(c.conn, spInsertBatch, func() error { return c.rem.InsertBatch("Ticks", batch) })
		last = now()
		if err != nil {
			ins.failed.Add(1)
			r.fail("insert: %v", err)
		}
		ack.add(r, t0, last-t0)
		events.add(r, last, 1)
	}
	r.addGenLate(&late)
	depthStats := depth.stop()
	var io ioSnapshot
	if r.tr != nil {
		io = r.tr.snapshot()
	}

	deadline := time.Now().Add(20 * time.Second)
	if !unicache.WaitIdle(c.rem, 20*time.Second) {
		r.fail("automata did not go idle after the run")
	}
	c.tap.wait(id, deadline)
	c.emits.wait(1, id, deadline)
	if r.tr != nil {
		r.activations(c.rem, id)
		r.rpcMetrics(io, id, ins.attempted.Load())
		r.layerMetric("tenant.auth_us", "us", float64(c.authNS)/1e3, 1)
	}
	c.watch.Close()
	c.auto.Close()
	<-c.out.done
	c.emits.finish(1, id)

	r.resourceMetrics(use, events)
	r.unboundedMetric("ingest_events_per_s", "events/s", r.rate(events), int(events.total()))
	r.latencyMetrics("commit_ack", ack, true)
	r.latencyMetrics("delivery", c.tap.lat, false)
	r.latencyMetrics("emit", c.emits.lat, false)
	if r.tr != nil {
		depthStats.report(r)
		r.replay = replayInputs{
			trace:    c.tap.events(func(id int64) string { return c.gen.row(id).key }),
			rows:     func(ev ref.Event) genRow { return c.gen.row(ev.ID) },
			batches:  repeat(1, int(id)),
			programs: []string{emitProgram("Ticks", remoteModulus)},
		}
	}
	return nil
}

// rpcMetrics reports the wrapped connections' counters over the phase:
// events rows inserted, msgs requests the client made.
func (r *run) rpcMetrics(io ioSnapshot, events, msgs int64) {
	ev := float64(events)
	r.layerMetric("rpc.client_writes_per_op", "count", float64(io[spClientWrite].calls)/float64(msgs), int(msgs))
	r.layerMetric("rpc.server_reads_per_msg", "count", float64(io[spServerRead].calls)/float64(msgs), int(msgs))
	r.layerMetric("rpc.server_writes_per_event", "count", float64(io[spServerWrite].calls)/ev, int(events))
	r.layerMetric("rpc.bytes_in_per_event", "bytes", float64(io[spServerRead].bytes)/ev, int(events))
	r.layerMetric("rpc.bytes_out_per_event", "bytes", float64(io[spServerWrite].bytes)/ev, int(events))
	r.layerMetric("rpc.server_write_ns_per_event", "ns", float64(io[spServerWrite].ns)/ev, int(events))
}
