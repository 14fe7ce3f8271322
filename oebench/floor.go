package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// frameHdr is the rpc frame header size: body length and deadline.
const frameHdr = 8

// loopbackFloor measures the raw TCP round trip of a request of reqBytes
// and a response of respBytes over loopback, framed like the rpc layer
// but with no encoding, dispatch or engine work: the physical floor the
// rpc hop is compared with. It returns the per-round-trip samples in ns.
func loopbackFloor(reqBytes, respBytes, rounds int) (sample, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sample{}, err
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		req := make([]byte, reqBytes)
		resp := make([]byte, respBytes)
		binary.LittleEndian.PutUint32(resp, uint32(respBytes-frameHdr))
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				srvErr <- nil // client closed: done
				return
			}
			if _, err := conn.Write(resp); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return sample{}, err
	}
	req := make([]byte, reqBytes)
	resp := make([]byte, respBytes)
	binary.LittleEndian.PutUint32(req, uint32(reqBytes-frameHdr))
	var s sample
	for r := 0; r < rounds; r++ {
		st := time.Now()
		if _, err := conn.Write(req); err != nil {
			conn.Close()
			return sample{}, fmt.Errorf("floor write: %w", err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			conn.Close()
			return sample{}, fmt.Errorf("floor read: %w", err)
		}
		s.addDur(time.Since(st))
	}
	conn.Close()
	if err := <-srvErr; err != nil {
		return sample{}, err
	}
	return s, nil
}
