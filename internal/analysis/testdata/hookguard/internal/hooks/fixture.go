// Package hooks is a hookguard rule A fixture: calls through optional
// func-typed hook fields must be dominated by a nil check.
package hooks

type Config struct {
	OnDispatch func(int)
	OnDone     func()
	Cover      func(int)
}

func unguarded(cfg *Config) {
	cfg.OnDispatch(1) // want "call through optional hook field cfg.OnDispatch is not dominated by a nil check"
	cfg.OnDone()      //simlint:allow hookguard fixture demonstrates an allowed unguarded hook call
}

func guardedThen(cfg *Config) {
	if cfg.OnDispatch != nil {
		cfg.OnDispatch(2)
	}
	if cfg.OnDispatch != nil && cfg.OnDone != nil {
		cfg.OnDispatch(3)
		cfg.OnDone()
	}
}

func guardedEarlyReturn(cfg *Config) {
	if cfg.Cover == nil {
		return
	}
	cfg.Cover(4)
}

func guardedElse(cfg *Config, deliver func()) {
	if cfg.Cover == nil {
		deliver()
	} else {
		cfg.Cover(5)
	}
}

func guardedPanic(cfg *Config) {
	if cfg.Cover == nil {
		panic("cover hook required here")
	}
	cfg.Cover(6)
}

func localCopy(cfg *Config) {
	// Copying the hook to a local and checking the copy is the caller's
	// own idiom: calls through locals are out of scope for rule A.
	done := cfg.OnDone
	if done != nil {
		done()
	}
}

// Runner's Do is a mandatory input: nothing in the package ever compares
// it with nil, so rule A has nothing to police — a nil Do is a bug the
// first call finds.
type Runner struct {
	Do func() int
}

func (r *Runner) run() int { return r.Do() }

// Probe's OnTick is optional because enabled compares it with nil — in
// another function, which guards nothing here.
type Probe struct {
	OnTick func()
}

func (p *Probe) enabled() bool { return p.OnTick != nil }

func (p *Probe) tick() {
	p.OnTick() // want "call through optional hook field p.OnTick is not dominated by a nil check"
}
