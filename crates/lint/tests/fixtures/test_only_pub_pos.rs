// Fixture: `pub fn`s that no shipped code reaches. The tree test lints
// this file as crates/fx/src/lib.rs beside a test file that calls every
// one of them, and test callers do not count.
pub fn only_tests_call_me() {} //~ test-only-pub

pub const fn const_too() -> u32 { //~ test-only-pub
    1
}

pub struct Meter;

impl Meter {
    pub fn unread(&self) -> u64 { //~ test-only-pub
        0
    }

    pub fn generic<T>(&self) {} //~ test-only-pub

    // An associated function counts only by `Meter::zero` or
    // `Self::zero`: a shipped call of `Gauge::zero` does not reach it.
    pub fn zero() -> Self { //~ test-only-pub
        Meter
    }
}

pub struct Gauge;

impl Gauge {
    pub fn zero() -> Self {
        Gauge
    }

    pub fn reset(&self) -> Self {
        Gauge
    }
}

fn gauges() -> Gauge {
    Gauge::zero().reset()
}

// Methods declared in a `pub trait` count as `pub fn`s, default
// bodies or not; a shipped call of `used` keeps only `used`.
pub trait Store {
    fn used(&self) -> u64;

    fn probe(&self) -> bool; //~ test-only-pub

    fn evict(&mut self) { //~ test-only-pub
        fn nested() {}
        nested()
    }
}

fn occupancy(s: &dyn Store) -> u64 {
    s.used()
}

// Comments and strings do not count: only_tests_call_me(), Meter::unread.
fn shipped() -> &'static str {
    "only_tests_call_me() Meter::unread .generic::<u8>()"
}

// A module path segment is not a reference to a fn of the same name.
pub fn rng() {} //~ test-only-pub

fn uses_a_module() -> crate::rng::Seed {
    crate::rng::Seed::default()
}

// vread-lint: allow(test-only-pub, "fixture: a kept entry point with a stated reason")
pub fn kept() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_from_cfg_test_do_not_count() {
        super::only_tests_call_me();
        super::Meter.unread();
        super::shipped();
    }
}
