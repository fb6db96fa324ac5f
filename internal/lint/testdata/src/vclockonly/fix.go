// Package vclockonlyfix exercises the vclockonly analyzer: wall-clock
// reads and timers are flagged in vclock-wired packages; injected clocks,
// pure time constructors, and justified //lint:ignore waivers are not.
package vclockonlyfix

import "time"

// Clock is the injected time source a vclock-wired package should use.
type Clock func() time.Duration

func reads() time.Time {
	t := time.Now()              // want `wall-clock time.Now`
	time.Sleep(time.Millisecond) // want `wall-clock time.Sleep`
	_ = time.Since(t)            // want `wall-clock time.Since`
	return t
}

func timers() {
	_ = time.After(time.Second)    // want `wall-clock time.After`
	_ = time.NewTimer(time.Second) // want `wall-clock time.NewTimer`
}

func clean(now Clock) time.Duration {
	d := 5 * time.Second
	_ = time.Unix(0, 0) // pure constructor: no clock read
	return now() + d
}

func waived() time.Time {
	//lint:ignore vclockonly fixture stands in for a net.Conn deadline, which is wall-clock by contract
	return time.Now()
}

func badDirectives() {
	//lint:wallclock the retired verb // want `unknown directive //lint:wallclock`
	//lint:ignore vclock a misspelled analyzer name waives nothing // want `names unknown analyzer "vclock"`
}
