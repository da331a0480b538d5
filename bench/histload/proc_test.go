package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')', so only the last ')' ends
	// it; utime = 250 and stime = 30 ticks.
	stat := "4242 (hist d) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 30 0 0 20 0 9 0 123456 1000000 3000 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2800 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 histd S 1", "4242 (histd) S 1 2 3", "4242 (histd) S 1 2 3 4 5 6 7 8 9 10 x 30 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\thistd\nState:\tS (sleeping)\nVmPeak:\t 1300000 kB\nVmHWM:\t   12780 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(12780 << 10); got != want {
		t.Errorf("VmHWM = %d bytes, want %d", got, want)
	}
	for _, bad := range []string{"Name:\thistd\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
}
