package task

import (
	"fmt"
	"strings"
)

// The three real benchmarks of §6.1. Task names follow the paper's
// footnotes; execution times and powers are calibrated stand-ins for the
// paper's C2RTL + ModelSim/DC-compiler characterization at SMIC 130 nm (see
// DESIGN.md): times are whole minutes, powers are in the 5–60 mW range
// typical of the platform, and the aggregate demand is scaled so that the
// node is over-subscribed relative to a sunny day's harvest — the regime in
// which the paper's DMRs (30–70 %) and its counter-intuitive
// utilization-vs-DMR finding arise. Execution times deliberately fill most
// of each period: banking energy for the night then *competes* with running
// tasks now, which is the tension the long-term scheduler exploits.
//
// All deadlines are relative to a 1800 s period (the default time base).

// WAM returns the wild animal monitoring benchmark: eight tasks on three
// NVPs — periodic locating, heart rate sampling, voice recordation, audio
// process, emergency response, audio compression, local storage and data
// transmission.
func WAM() *Graph {
	const (
		locate = iota
		heartRate
		voiceRec
		audioProc
		emergency
		audioComp
		storage
		transmit
	)
	tasks := []Task{
		{ID: locate, Name: "locate", ExecTime: 300, Power: 0.045, Deadline: 720, NVP: 0},
		{ID: heartRate, Name: "heart-rate", ExecTime: 120, Power: 0.010, Deadline: 420, NVP: 0},
		{ID: voiceRec, Name: "voice-rec", ExecTime: 540, Power: 0.020, Deadline: 900, NVP: 1},
		{ID: audioProc, Name: "audio-proc", ExecTime: 420, Power: 0.038, Deadline: 1440, NVP: 1},
		{ID: emergency, Name: "emergency", ExecTime: 120, Power: 0.014, Deadline: 720, NVP: 0},
		{ID: audioComp, Name: "audio-comp", ExecTime: 300, Power: 0.032, Deadline: 1680, NVP: 1},
		{ID: storage, Name: "storage", ExecTime: 180, Power: 0.012, Deadline: 1800, NVP: 2},
		{ID: transmit, Name: "transmit", ExecTime: 240, Power: 0.062, Deadline: 1800, NVP: 2},
	}
	edges := []Edge{
		{From: voiceRec, To: audioProc},
		{From: audioProc, To: audioComp},
		{From: audioComp, To: storage},
		{From: storage, To: transmit},
		{From: heartRate, To: emergency},
	}
	return NewGraph("WAM", tasks, edges, 3)
}

// ECG returns the electrocardiogram benchmark: six tasks on two NVPs — low
// pass filter, high pass filter 1/2, QRS wave detection, FFT and AES
// encoder.
func ECG() *Graph {
	const (
		lpf = iota
		hpf1
		hpf2
		qrs
		fft
		aes
	)
	tasks := []Task{
		{ID: lpf, Name: "lpf", ExecTime: 240, Power: 0.008, Deadline: 480, NVP: 0},
		{ID: hpf1, Name: "hpf1", ExecTime: 240, Power: 0.009, Deadline: 840, NVP: 0},
		{ID: hpf2, Name: "hpf2", ExecTime: 240, Power: 0.009, Deadline: 1200, NVP: 0},
		{ID: qrs, Name: "qrs-detect", ExecTime: 360, Power: 0.016, Deadline: 1500, NVP: 1},
		{ID: fft, Name: "fft", ExecTime: 420, Power: 0.026, Deadline: 1560, NVP: 0},
		{ID: aes, Name: "aes-enc", ExecTime: 360, Power: 0.030, Deadline: 1800, NVP: 1},
	}
	edges := []Edge{
		{From: lpf, To: hpf1},
		{From: hpf1, To: hpf2},
		{From: hpf2, To: qrs},
		{From: hpf2, To: fft},
		{From: qrs, To: aes},
	}
	return NewGraph("ECG", tasks, edges, 2)
}

// SHM returns the structure health monitoring benchmark: five tasks on two
// NVPs — temperature sensing, acceleration sensing, FFT, data receiving and
// transmitting.
func SHM() *Graph {
	const (
		temp = iota
		accel
		fft
		receive
		transmit
	)
	tasks := []Task{
		{ID: temp, Name: "temp-sense", ExecTime: 120, Power: 0.006, Deadline: 600, NVP: 0},
		{ID: accel, Name: "accel-sense", ExecTime: 540, Power: 0.022, Deadline: 900, NVP: 0},
		{ID: fft, Name: "fft", ExecTime: 480, Power: 0.030, Deadline: 1440, NVP: 1},
		{ID: receive, Name: "data-rx", ExecTime: 240, Power: 0.042, Deadline: 900, NVP: 1},
		{ID: transmit, Name: "data-tx", ExecTime: 300, Power: 0.058, Deadline: 1800, NVP: 1},
	}
	edges := []Edge{
		{From: accel, To: fft},
		{From: fft, To: transmit},
	}
	return NewGraph("SHM", tasks, edges, 2)
}

// RandomCase returns one of the paper's three random benchmarks (1-based),
// generated deterministically at the default 1800 s period with 60 s slots.
func RandomCase(i int) *Graph {
	if i < 1 || i > 3 {
		panic("task: RandomCase index must be 1, 2 or 3")
	}
	return Random(
		[]string{"Random1", "Random2", "Random3"}[i-1],
		uint64(1000+i), 1800, 60)
}

// benchmarks lists the six evaluation benchmarks of §6.1 in the paper's
// order, each under the name its graph carries.
var benchmarks = []struct {
	name  string
	build func() *Graph
}{
	{"Random1", func() *Graph { return RandomCase(1) }},
	{"Random2", func() *Graph { return RandomCase(2) }},
	{"Random3", func() *Graph { return RandomCase(3) }},
	{"WAM", WAM},
	{"ECG", ECG},
	{"SHM", SHM},
}

// AllBenchmarks returns the six evaluation benchmarks of §6.1 in the
// paper's order: three random cases then WAM, ECG, SHM.
func AllBenchmarks() []*Graph {
	out := make([]*Graph, len(benchmarks))
	for i, b := range benchmarks {
		out[i] = b.build()
	}
	return out
}

// ByName builds the benchmark of AllBenchmarks whose name matches, in any
// case: wam, ecg, shm, random1, random2 or random3. Only the matching
// graph is built.
func ByName(name string) (*Graph, error) {
	for _, b := range benchmarks {
		if strings.EqualFold(b.name, name) {
			return b.build(), nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}
