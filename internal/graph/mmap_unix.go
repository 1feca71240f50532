//go:build unix

package graph

import (
	"os"
	"syscall"
)

// mmapBinaryFile maps a dump read-only and aliases the CSR arrays straight
// into the mapping — load cost becomes a header check, one CRC sweep and
// the structural validation scan, with the section bytes served from the
// page cache on demand. handled=false asks the caller to fall back to the
// streaming loader (an unopenable, empty or irregular file, a big-endian
// host, or mmap refusing the file); handled=true means the outcome — graph
// or corruption error — is final. Both loaders judge a dump by
// parseBinaryImage, so they reject the same files with the same errors.
//
// On success the mapping is deliberately never unmapped: loaded graphs are
// immutable, process-lifetime objects shared by every job, exactly like the
// generator-cache replicas. A validation failure unmaps before returning.
func mmapBinaryFile(path string) (*Graph, bool, error) {
	if !hostLittleEndian {
		return nil, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, nil // the stream loader reports the canonical error
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return nil, false, nil
	}
	size := st.Size()
	if size == 0 || size > int64(maxInt) {
		return nil, false, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, false, nil
	}
	g, err := parseBinaryImage(data)
	if err != nil {
		_ = syscall.Munmap(data)
		return nil, true, err
	}
	return g, true, nil
}

const maxInt = int(^uint(0) >> 1)
