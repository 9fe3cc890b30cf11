// Fixture: exhaustive sealed matches and benign wildcards.
fn mode(m: HostCacheMode) -> &'static str {
    // Fully enumerated: adding a variant breaks this at lint time.
    match m {
        HostCacheMode::Lru => "lru",
        HostCacheMode::Cas => "cas",
    }
}

enum Local {
    A,
    B,
}

fn local(l: Local) -> u8 {
    // Wildcard over a crate-local enum: not sealed, not our business.
    match l {
        Local::A => 0,
        _ => 1,
    }
}

fn make(n: u64) -> FaultKind {
    // Constructs FaultKind in arm *bodies*; the wildcard is over `n`.
    match n {
        0 => FaultKind::LinkFlap { at: 1 },
        _ => FaultKind::DiskSlow { factor: 2 },
    }
}
