// Fixture: `pub fn`s with a shipped caller, each reached by a different
// route. The tree test lints this file as crates/fx/src/lib.rs beside
// an example that calls `listed` and a benchmark that calls
// `bench_only`.
pub struct Meter;

impl Meter {
    pub fn new() -> Self {
        Meter
    }

    // Passed as a path value, never called by name.
    pub fn name(&self) -> &'static str {
        "meter"
    }

    pub fn read(&self) -> u64 {
        0
    }

    pub fn generic<T>(&self) {}
}

pub fn listed() -> Vec<&'static str> {
    let ms = vec![Meter::new()];
    ms[0].read();
    ms[0].generic::<u8>();
    ms.iter().map(Meter::name).collect()
}

// Called only from benchmark/.
pub fn bench_only() {}

// Called only from another file's non-test code, via a turbofish.
pub fn parse<T: Default>() -> T {
    T::default()
}

#[cfg(test)]
mod tests {
    // A test helper is never judged, whatever its visibility.
    pub fn helper() {}

    #[test]
    fn uses_helper() {
        helper();
    }
}
