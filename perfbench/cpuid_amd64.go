package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string (CPUID 0x80000002-4).
func cpuModel() string {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < 0x80000004 {
		return "unknown"
	}
	var buf []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, b, c, d} {
			buf = binary.LittleEndian.AppendUint32(buf, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf), "\x00"))
}

// lastLevelCache returns the size in bytes and the level of the largest
// numbered cache, from the deterministic cache parameters leaf (4 on
// Intel, 0x8000001D on AMD); 0, 0 when the processor does not report it.
func lastLevelCache() (size, level int) {
	leaf := uint32(4)
	if _, b, c, d := cpuid(0, 0); b == 0x68747541 && c == 0x444d4163 && d == 0x69746e65 { // "AuthenticAMD"
		if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < 0x8000001D {
			return 0, 0
		}
		leaf = 0x8000001D
	} else if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 4 {
		return 0, 0
	}
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(leaf, sub)
		if a&0x1f == 0 { // no more caches
			break
		}
		lvl := int(a>>5) & 7
		ways := int(b>>22) + 1
		parts := int(b>>12)&0x3ff + 1
		line := int(b)&0xfff + 1
		sets := int(c) + 1
		if lvl >= level {
			size, level = ways*parts*line*sets, lvl
		}
	}
	return size, level
}
