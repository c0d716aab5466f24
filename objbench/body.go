package main

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Object bodies are derived from (key, version) so that a GET can be
// checked without storing what was written. The first 16 bytes carry the
// version and the key index; the rest is a splitmix64 stream seeded by
// both. Every version of a key has the same length, so a body that mixes
// two versions, starts with one version's header over another's bytes, or
// stops early differs from every body the key was ever given.

const headerLen = 16

// bodySeed mixes a key and version into the stream seed.
func bodySeed(key int, version uint64) uint64 {
	return mix64(uint64(key)*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillBody writes the body of (key, version) into p, whose length is the
// object size. Sizes are multiples of 8 bytes and at least headerLen.
func fillBody(p []byte, key int, version uint64) {
	binary.LittleEndian.PutUint64(p[0:], version)
	binary.LittleEndian.PutUint64(p[8:], uint64(key))
	s := bodySeed(key, version)
	for i := headerLen; i+8 <= len(p); i += 8 {
		s += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(p[i:], mix64(s))
	}
}

var errBody = errors.New("body mismatch")

// checkBody reports whether p is exactly the body of some version of key in
// 1..latest, where latest is the newest version any PUT of the key has
// started with.
func checkBody(p []byte, size, key int, latest uint64) error {
	if len(p) != size {
		return fmt.Errorf("%w: %d bytes, want %d", errBody, len(p), size)
	}
	v := binary.LittleEndian.Uint64(p[0:])
	if v == 0 || v > latest {
		return fmt.Errorf("%w: version %d not in 1..%d", errBody, v, latest)
	}
	if k := binary.LittleEndian.Uint64(p[8:]); k != uint64(key) {
		return fmt.Errorf("%w: key %d, want %d", errBody, k, key)
	}
	s := bodySeed(key, v)
	for i := headerLen; i+8 <= len(p); i += 8 {
		s += 0x9e3779b97f4a7c15
		if binary.LittleEndian.Uint64(p[i:]) != mix64(s) {
			return fmt.Errorf("%w: version %d differs at byte %d", errBody, v, i)
		}
	}
	return nil
}
