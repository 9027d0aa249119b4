package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The recording host (Intel Xeon, 2 vCPUs) shares its physical cores and
// caches with other machines, and it slows in two ways that a median over
// one run cannot remove.
//
// Steal: the hypervisor withholds a vCPU for seconds at a time, at worst for
// 40% of the busy time of a run. The unit times are therefore wall time
// less the time stolen meanwhile (clock below). Process CPU time already
// excludes steal.
//
// Contention: a vCPU that runs runs slower, by a quarter or more for
// minutes, in CPU time as much as in wall time. The same grid took 16.9 s,
// then 13.1 s, then 11.4 s within half an hour. So between units, outside
// the timed region, a run times a fixed kernel of the benchmark's own code
// in thread CPU time, and it reports its end-to-end times at the reference
// speed:
//
//	reported = measured × kernelRef ÷ median(kernel times of the run)
//
// and rates by the inverse. The kernel calls nothing of bgpchurn and
// allocates nothing while timed, so a change to the program cannot move it;
// a host slowdown moves the kernel and the units alike and cancels. The
// record keeps the measured values and the factor beside the reported ones.

// clock is a wall-clock reading paired with each vCPU's steal time so far.
type clock struct {
	at    time.Time
	steal []time.Duration
}

func readClock() clock { return clock{at: time.Now(), steal: stealTimes()} }

// since returns the wall time from c to now less the time stolen
// meanwhile. It subtracts the largest steal of any one vCPU: a single
// simulation waits for the vCPU it runs on, and the largest share never
// exceeds the interval, where the sum over vCPUs could.
func (c clock) since() time.Duration {
	now := readClock()
	var stolen time.Duration
	for i := range min(len(c.steal), len(now.steal)) {
		stolen = max(stolen, now.steal[i]-c.steal[i])
	}
	return max(now.at.Sub(c.at)-stolen, 0)
}

// stealTimes reads each vCPU's steal time from /proc/stat (the eighth
// number of a cpuN line, in USER_HZ = 100 ticks a second). Without
// /proc/stat it returns nil, and since subtracts nothing.
func stealTimes() []time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	return parseSteal(b)
}

// parseSteal reads the per-vCPU steal times out of /proc/stat's text.
func parseSteal(b []byte) []time.Duration {
	var out []time.Duration
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, time.Duration(ticks)*10*time.Millisecond)
	}
	return out
}

// threadCPU returns the CPU time of the calling OS thread, which excludes
// steal. RUSAGE_THREAD is 1 on Linux.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// kernelRef is the kernel's median thread CPU time on the recording host
// in a quiet period. It only sets the scale of the reported
// values; comparisons between runs do not depend on it.
const kernelRef = 24 * time.Millisecond

// kernelPerSettle is how many kernel samples each settle takes.
const kernelPerSettle = 2

// speedKernel is the kernel's working set, built once in an anonymous
// mapping outside the Go heap, so the GC neither scans it nor counts it
// toward its heap target: the program's GC paces as it would alone. It
// holds a shuffled cyclic list of 64-byte nodes, larger than a core's
// caches, that misses as the simulator's RIB and event walks do; an
// open-addressed table with its keys; and an array to sort.
type speedKernel struct {
	mem   []byte   // the mapping; its pages stay resident
	list  []uint64 // kernelNodes nodes of 8 words; word 0 is the next node
	head  int
	table []uint64
	keys  []uint64
	src   []int
	buf   []int
	times []float64
}

const (
	kernelNodes = 1 << 17
	kernelTable = 1 << 16
	kernelKeys  = 1 << 16
	kernelSort  = 1 << 14
)

func newSpeedKernel() (*speedKernel, error) {
	words := kernelNodes*8 + kernelTable + kernelKeys + 2*kernelSort
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed kernel: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	ints := unsafe.Slice((*int)(unsafe.Pointer(&all[kernelNodes*8+kernelTable+kernelKeys])), 2*kernelSort)
	k := &speedKernel{
		mem:   mem,
		list:  all[:kernelNodes*8],
		table: all[kernelNodes*8 : kernelNodes*8+kernelTable],
		keys:  all[kernelNodes*8+kernelTable : kernelNodes*8+kernelTable+kernelKeys],
		src:   ints[:kernelSort],
		buf:   ints[kernelSort:],
	}
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(kernelNodes)
	for i, p := range perm {
		k.list[8*p] = uint64(perm[(i+1)%len(perm)])
	}
	k.head = perm[0]
	for i := range k.keys {
		k.keys[i] = r.Uint64() | 1
	}
	for i := range k.src {
		k.src[i] = r.Int()
	}
	return k, nil
}

// kernelSink keeps the kernel's result live.
var kernelSink uint64

// sample times one pass of the kernel in thread CPU time and keeps it.
func (k *speedKernel) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var sum uint64
	p := k.head
	for range kernelNodes {
		p = int(k.list[8*p])
		sum += uint64(p)
	}
	sum += k.hash()
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	sum += uint64(k.buf[0])
	kernelSink += sum
	k.times = append(k.times, (threadCPU() - t0).Seconds())
}

// hash fills the table with half the keys and looks all of them up.
func (k *speedKernel) hash() uint64 {
	var sum uint64
	clear(k.table)
	mask := uint64(len(k.table) - 1)
	for _, key := range k.keys[:len(k.keys)/2] {
		h := key * 0x9e3779b97f4a7c15
		for i := h >> 40 & mask; ; i = (i + 1) & mask {
			if k.table[i] == 0 || k.table[i] == key {
				k.table[i] = key
				break
			}
		}
	}
	for _, key := range k.keys {
		h := key * 0x9e3779b97f4a7c15
		for i := h >> 40 & mask; k.table[i] != 0; i = (i + 1) & mask {
			if k.table[i] == key {
				sum++
				break
			}
		}
	}
	return sum
}

// factor is kernelRef ÷ the run's median kernel time: multiply a measured
// time by it, divide a measured rate by it. With no samples it is 1.
func (k *speedKernel) factor() float64 {
	if len(k.times) == 0 {
		return 1
	}
	return kernelRef.Seconds() / median(k.times)
}
