package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The benchmark's own sample stores — a latency per op, a record per
// traced op — would, on the Go heap, be most of the live heap of a program
// whose own working set is a few megabytes, and the garbage collector
// paces itself by the live heap: the stores would make collections rarer
// and the measured program faster the longer a run lasts. They are
// therefore kept in anonymous mappings outside the heap, which hold no
// pointers and which the collector never sees. Pages are only backed once
// written, so a generous capacity costs nothing.

// offHeap maps room for n values of T and returns it as a slice of length
// n, with the function that unmaps it. T must not contain pointers.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: mapping %d bytes: %w", size, err)
	}
	free := func() { _ = syscall.Munmap(mem) } // only unmaps what was just mapped
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), free, nil
}
