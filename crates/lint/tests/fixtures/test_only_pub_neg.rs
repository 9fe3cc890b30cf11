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

    // Associated functions: `zero` is reached through `Self::` in a
    // trait impl of the type, `one` as a path value.
    pub fn zero() -> Self {
        Meter
    }

    pub fn one() -> Self {
        Meter
    }
}

impl Default for Meter {
    fn default() -> Self {
        Self::zero()
    }
}

fn ones() -> Vec<Meter> {
    std::iter::repeat_with(Meter::one).take(2).collect()
}

// A macro-generated impl names its type through a variable, so its
// functions are judged by name.
macro_rules! id {
    ($t:ident) => {
        impl $t {
            pub const fn from_raw(raw: u32) -> Self {
                $t(raw)
            }
        }
    };
}

pub struct Tag(u32);
id!(Tag);

// A `pub trait`'s methods, each reached by a shipped call; a method
// without a receiver is judged by name like any other trait method.
pub trait Store {
    fn used(&self) -> u64;

    fn kind() -> &'static str;
}

fn occupancy<S: Store>(s: &S) -> (u64, &'static str, Tag) {
    (s.used(), S::kind(), Tag::from_raw(1))
}

// A function returning `impl Trait` is not an impl block: `Self::`
// inside it resolves to the enclosing impl.
pub struct Ring;

impl Ring {
    pub fn slots() -> u32 {
        4
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> {
        0..Self::slots()
    }
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
