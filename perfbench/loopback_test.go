package main

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

// TestClosedLoopCountsBadRepliesAsFailures serves a closed loop from a
// peer that answers one interest with a corrupted payload, one with a
// corrupted name and one not at all: each is a failed fetch, and every
// other fetch succeeds.
func TestClosedLoopCountsBadRepliesAsFailures(t *testing.T) {
	const fetches, size = 20, 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r, w := ndn.NewPacketReader(c), bufio.NewWriter(c)
		for i := 0; ; i++ {
			pkt, err := r.Next()
			if err != nil {
				return
			}
			name := pkt.Interest.Name
			payload := payloadFor(name, size)
			switch i {
			case 3:
				payload[7] ^= 0xff // corrupted payload
			case 5:
				continue // no reply
			case 7:
				name = name.AppendString("x") // corrupted name
			}
			d, err := ndn.NewData(name, payload)
			if err != nil {
				return
			}
			if _, err := w.Write(ndn.EncodeData(d)); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var nonce atomic.Uint64
	now := time.Now()
	st := closedLoop(c, sequence(fetches, func(i int) ndn.Name { return benchName("t", 1, i) }),
		loopConfig{deadline: now.Add(time.Minute), payload: size, limit: 300 * time.Millisecond, nonce: &nonce})
	if st.attempted != fetches || st.ok != fetches-3 || st.failed != 3 {
		t.Errorf("attempted %d ok %d failed %d; want %d, %d, 3", st.attempted, st.ok, st.failed, fetches, fetches-3)
	}
	if len(st.latUS) != int(st.ok) {
		t.Errorf("%d latency samples for %d successful fetches", len(st.latUS), st.ok)
	}
}

// TestClosedLoopPeerGone counts every outstanding fetch as failed when
// the peer closes without answering.
func TestClosedLoopPeerGone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var nonce atomic.Uint64
	now := time.Now()
	st := closedLoop(c, sequence(100, func(i int) ndn.Name { return benchName("t", 1, i) }),
		loopConfig{deadline: now.Add(time.Minute), payload: 8, limit: time.Second, nonce: &nonce})
	if st.ok != 0 || st.failed != st.attempted || st.attempted == 0 {
		t.Errorf("attempted %d ok %d failed %d; want every attempt failed", st.attempted, st.ok, st.failed)
	}
}
