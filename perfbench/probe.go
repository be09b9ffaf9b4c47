package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Process probes: CPU, memory and GC counters of this process or, for
// the service workload, of the approxd child read from /proc.

// procSample is a snapshot of this process's resource counters.
type procSample struct {
	cpuNs   int64   // user + system CPU
	mallocs uint64  // heap objects allocated
	bytes   uint64  // heap bytes allocated
	gcCPU   float64 // GC CPU seconds (runtime/metrics)
}

var gcMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// sampleSelf reads this process's counters; ReadMemStats stops the
// world, so it is only called at phase boundaries.
func sampleSelf() procSample {
	var ru syscall.Rusage
	var s procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	metrics.Read(gcMetric)
	if gcMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcMetric[0].Value.Float64()
	}
	return s
}

// addGoLayers reports the Go runtime's per-op cost between two samples.
func addGoLayers(rep *report, a, b procSample, ops int) {
	n := float64(max(ops, 1))
	rep.layers["go.gc_cpu_s"] = (b.gcCPU - a.gcCPU) / n
	rep.layers["go.mallocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	rep.layers["go.alloc_kb_per_op"] = float64(b.bytes-a.bytes) / 1024 / n
}

// statusKB reads one "<Key>: <n> kB" line of /proc/<pid>/status.
func statusKB(pid, key string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	//lint:ignore errcheck read-only file; nothing to flush
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == key {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", key, pid)
}

// peakRSSMiB is the high-water resident set (VmHWM) of pid ("self"
// for this process), in MiB.
func peakRSSMiB(pid string) (float64, error) {
	kb, err := statusKB(pid, "VmHWM")
	return kb / 1024, err
}

// userHz is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux ABI Go supports.
const userHz = 100

// procCPUNs reads utime+stime of pid from /proc/<pid>/stat.
func procCPUNs(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return (ut + st) * (1e9 / userHz), nil
}

// procWriteSyscalls reads syscw from /proc/<pid>/io; ok is false when
// the kernel does not expose it to this user.
func procWriteSyscalls(pid int) (n float64, ok bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, false
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, found := strings.Cut(l, ":"); found && k == "syscw" {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return x, err == nil
		}
	}
	return 0, false
}

// hostCPU is the host's total CPU steal time and busy time (all CPUs,
// user+nice+system+irq+softirq) in seconds. Steal is time the
// hypervisor ran something else while a vCPU wanted to run. Result
// files record it per run, because it moves wall-clock figures that
// nothing in the program explains.
func hostCPU() (steal, busy float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return 0, 0
		}
	}
	return v[8] / userHz, (v[1] + v[2] + v[3] + v[6] + v[7]) / userHz
}

// selfRSSMiB is this process's current resident set in MiB (0 if
// /proc/self/statm cannot be read).
func selfRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// Spans. The traced run records one span per layer crossing it can
// see from outside — job, map attempt, controller call, reduce
// bracket, stream window, service op phases — in memory, and writes
// them out when the run ends.

// spanKind names a span; the names are the layer boundaries.
type spanKind uint8

const (
	spanJob spanKind = iota
	spanAttempt
	spanController
	spanReduce
	spanRep
	spanWindow
	spanOp
	spanSubmit
	spanQueue
	spanRun
	spanResult
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"mapreduce.job", "mapreduce.attempt", "approx.controller", "mapreduce.reduce",
	"stream.rep", "stream.window", "service.op", "jobserver.submit", "jobserver.queue",
	"jobserver.run", "jobserver.result",
}

// span is one recorded interval; times are ns since epoch.
type span struct {
	kind       spanKind
	op         int32 // job / window / service-op id shared by its spans
	parent     int32 // index of the parent span, -1 for roots
	start, end int64
}

// spanLog is the in-memory span store of one traced run. It is only
// appended to from the goroutine that owns the run phase (batch jobs
// merge their per-job buffers after mapreduce.Run returns).
type spanLog struct {
	spans []span
}

func (l *spanLog) add(s span) int32 {
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// selfTimes is each span kind's total self time in seconds: its
// duration minus the part of it covered by its children's union.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[int32][]span{}
	for _, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range l.spans {
		covered := unionNs(children[int32(i)], s.start, s.end)
		out[spanNames[s.kind]] += float64(s.end-s.start-covered) / 1e9
	}
	return out
}

// unionNs is the length of the union of spans clipped to [lo, hi].
func unionNs(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	return total + curB - curA
}

// write dumps the spans as gzipped TSV: id, parent, op, name,
// start_ns, end_ns.
func (l *spanLog) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tname\tstart_ns\tend_ns")
	var line []byte
	for i, s := range l.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.op), 10)
		line = append(line, '\t')
		line = append(line, spanNames[s.kind]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		//lint:ignore errcheck bufio.Writer keeps the first error and Flush returns it
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
