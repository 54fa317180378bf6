package main

import (
	"syscall"
	"unsafe"
)

// arena hands out slices of pointer-free records outside the Go heap.
// The run's own records (latency samples, the tenants' ack logs and
// answered alternatives) grow with the length of the measured phase; kept
// in the heap they would count in heap_peak_mb and raise the collector's
// heap goal for the program under test. Pages of a mapping are only
// backed once written, so a reservation may be generous.
type arena struct{ maps [][]byte }

// reserve returns s moved into a fresh mapping with room for extra more
// elements. T must hold no pointers: the collector does not scan the
// mapping. If the mapping fails, s grows in the heap instead.
func reserve[T any](a *arena, s []T, extra int) []T {
	size := int(unsafe.Sizeof(*new(T))) * (len(s) + extra)
	if extra <= 0 || size == 0 {
		return s
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return append(make([]T, 0, len(s)+extra), s...)
	}
	a.maps = append(a.maps, b)
	out := unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(s)+extra)[:0]
	return append(out, s...)
}

// free unmaps every reservation. No slice reserve returned may be used
// afterwards.
func (a *arena) free() {
	for _, b := range a.maps {
		syscall.Munmap(b)
	}
	a.maps = nil
}
