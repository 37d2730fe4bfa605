package main

import (
	"fmt"
	"os"
	"time"

	"lcm/internal/aead"
	"lcm/internal/core"
	"lcm/internal/hashchain"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/transport"
	"lcm/internal/wire"
	"lcm/internal/ycsb"
)

// nsPerIter runs fn n times on the calling goroutine and returns the mean
// nanoseconds per call.
func nsPerIter(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// unitProbes measures what single calls into the lower layers cost, with
// fixed iteration counts, so a move in a workload's layer share can be
// told apart from a move in the primitive underneath it.
func unitProbes(iters int, tmp string) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, n int) { out = append(out, metric{Name: name, Value: v, N: n}) }

	key, err := aead.NewKey()
	if err != nil {
		return nil, err
	}
	ad := []byte("lcm/bench/probe")
	small := make([]byte, 256)
	sealed, err := aead.Seal(key, small, ad)
	if err != nil {
		return nil, err
	}
	var probeErr error
	keep := func(_ []byte, err error) {
		if err != nil {
			probeErr = err
		}
	}
	add("aead.seal_ns_256B", nsPerIter(iters*10, func() { keep(aead.Seal(key, small, ad)) }), iters*10)
	add("aead.open_ns_256B", nsPerIter(iters*10, func() { keep(aead.Open(key, sealed, ad)) }), iters*10)
	big := make([]byte, 1<<20)
	bigIters := max(iters/100, 2)
	ns := nsPerIter(bigIters, func() { keep(aead.Seal(key, big, ad)) })
	add("aead.seal_mbps_1MiB", float64(len(big))/1e6/(ns/1e9), bigIters)

	gen := ycsb.WorkloadA(1000, 100)
	rng := clientRNG(1, 0)
	op := kvs.Put(gen.Key(7), gen.Value(rng))
	chain := hashchain.Initial()
	add("hashchain.extend_ns", nsPerIter(iters*10, func() { chain = hashchain.Extend(chain, op, 1, 1) }), iters*10)
	add("wire.invoke_codec_ns", nsPerIter(iters*10, func() {
		m := wire.Invoke{ClientID: 1, TC: 1, HC: chain, Op: op}
		if _, err := wire.DecodeInvoke(m.Encode()); err != nil {
			probeErr = err
		}
	}), iters*10)
	add("core.client_invoke_ns", nsPerIter(iters*10, func() { keep(core.NewClient(1, key).Invoke(op)) }), iters*10)

	store := kvs.New()
	puts, gets := make([][]byte, 1000), make([][]byte, 1000)
	for i := range puts {
		puts[i], gets[i] = kvs.Put(gen.Key(i), gen.Value(rng)), kvs.Get(gen.Key(i))
		keep(store.Apply(puts[i]))
	}
	i := 0
	add("kvs.apply_put_ns", nsPerIter(iters*10, func() { keep(store.Apply(puts[i%1000])); i++ }), iters*10)
	add("kvs.apply_get_ns", nsPerIter(iters*10, func() { keep(store.Apply(gets[i%1000])); i++ }), iters*10)

	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	files, err := stablestore.NewFileStore(dir, true, latency.None())
	if err != nil {
		return nil, err
	}
	record := [][]byte{make([]byte, 300)}
	syncIters := max(iters/10, 5)
	us := make([]float64, syncIters)
	for i := range us {
		start := time.Now()
		if err := files.AppendGroup("probe", record); err != nil {
			return nil, err
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	add("stablestore.append_group_sync_us", median(us), syncIters)
	if probeErr != nil {
		return nil, fmt.Errorf("unit probe: %w", probeErr)
	}
	return out, nil
}

// echoRTT is the median round trip, in µs, of one frame of the given size
// over the same framed loopback TCP transport the sessions use, with
// nothing behind it but an echo loop.
func echoRTT(frameSize, iters int) (float64, error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.Recv()
			if err != nil || c.Send(f) != nil {
				return
			}
		}
	}()
	defer func() {
		_ = l.Close()
		<-echoed
	}()
	c, err := transport.DialTCP(l.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	frame := make([]byte, max(frameSize, 1))
	us := make([]float64, iters)
	for i := range us {
		start := time.Now()
		if err := c.Send(frame); err != nil {
			return 0, err
		}
		if _, err := c.Recv(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start)) / 1e3
	}
	return median(us), nil
}
