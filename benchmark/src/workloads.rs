//! The workload generator: a pure function from `(workload, seed)` to a
//! scenario JSON document. The simulator under test receives only that
//! document, parsed by its own `ScenarioSpec::from_json`.
//!
//! Every workload keeps its data volume, request size and topology fixed;
//! the seed moves only start offsets, replica placement, fault targets,
//! host clocks (within 1%) and the world's RNG seed. Host time per
//! iteration therefore depends on the code under test, not on the seed,
//! while the simulated values still differ slightly from seed to seed.

use vread_bench::json::{n, obj, s, Json};

/// Every workload, in the order the all-workload run interleaves them.
pub const WORKLOADS: [&str; 4] = [
    "contended-vanilla",
    "remote-vread",
    "write-read-mix",
    "cluster-scale",
];

/// The seed the all-workload run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The seed kept out of tuning, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 2;

/// SplitMix64, the expander behind every seeded choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by the workload name so two
    /// workloads at one seed draw unrelated streams.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// What a generated workload promises its checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// Payload bytes every run must move.
    pub bytes: u64,
    /// Smallest allowed copies per read (byte-weighted ledger minimum).
    pub min_copies: f64,
    /// Largest allowed copies per read (ledger maximum).
    pub max_copies: f64,
    /// The content-addressed store must report a capacity gain above 1.
    pub dedup: bool,
}

/// A generated workload: the scenario JSON plus what its outputs must
/// satisfy.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The scenario document handed to the simulator.
    pub json: String,
    /// Output expectations.
    pub expect: Expect,
}

const MB: u64 = 1 << 20;

/// A host whose clock the seed draws from 2.000–2.020 GHz: enough to
/// give every simulated time a seed dependence, too little to change the
/// work the simulator does.
fn host(rng: &mut Rng, name: &str, cores: u64) -> Json {
    let ghz = (2000 + rng.range(0, 20)) as f64 / 1000.0;
    obj(vec![
        ("name", s(name)),
        ("cores", n(cores as f64)),
        ("ghz", n(ghz)),
    ])
}

fn vm(name: &str, host: &str, role: &str) -> Json {
    obj(vec![
        ("name", s(name)),
        ("host", s(host)),
        ("role", s(role)),
    ])
}

fn file(path: &str, mb: u64, placement: &[String], replicate: bool) -> Json {
    obj(vec![
        ("path", s(path)),
        ("mb", n(mb as f64)),
        ("placement", Json::Arr(placement.iter().map(s).collect())),
        ("replicate", Json::Bool(replicate)),
    ])
}

fn reader(client: &str, path: &str, request_kb: u64, start_ms: u64) -> Json {
    obj(vec![
        ("kind", s("reader")),
        ("path", s(path)),
        ("request_kb", n(request_kb as f64)),
        ("client", s(client)),
        ("start_ms", n(start_ms as f64)),
    ])
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    seed: u64,
    path: &str,
    host_cache: Option<Json>,
    hosts: Vec<Json>,
    vms: Vec<Json>,
    files: Vec<Json>,
    workloads: Vec<Json>,
    faults: Vec<Json>,
) -> String {
    let mut fields = vec![("seed", n(seed as f64)), ("path", s(path))];
    if let Some(hc) = host_cache {
        fields.push(("host_cache", hc));
    }
    fields.push(("hosts", Json::Arr(hosts)));
    fields.push(("vms", Json::Arr(vms)));
    fields.push(("files", Json::Arr(files)));
    fields.push(("workloads", Json::Arr(workloads)));
    if !faults.is_empty() {
        fields.push(("faults", Json::Arr(faults)));
    }
    obj(fields).pretty()
}

/// The world seed a scenario runs with: kept below 2^53 so it survives
/// the JSON number round trip exactly.
fn world_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// Timeline sampling period of the traced variant, simulated ms.
pub const TRACE_SAMPLE_MS: u64 = 10;

/// `json` with the span recorder on and the telemetry timeline sampling
/// every [`TRACE_SAMPLE_MS`]: the scenario as `repro trace` and
/// `repro timeline` users run it.
///
/// # Errors
///
/// When `json` is not a JSON object.
pub fn traced(json: &str) -> Result<String, String> {
    match Json::parse(json).map_err(|e| e.to_string())? {
        Json::Obj(mut fields) => {
            fields.retain(|(k, _)| k != "spans" && k != "timeline");
            fields.push(("spans".to_owned(), Json::Bool(true)));
            fields.push((
                "timeline".to_owned(),
                obj(vec![("sample_ms", n(TRACE_SAMPLE_MS as f64))]),
            ));
            Ok(Json::Obj(fields).pretty())
        }
        _ => Err("scenario is not a JSON object".to_owned()),
    }
}

/// Generates workload `name` at `seed`, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Generated> {
    let name = *WORKLOADS.iter().find(|w| **w == name)?;
    let mut rng = Rng::new(seed, name);
    let (json, expect) = match name {
        "contended-vanilla" => contended_vanilla(&mut rng),
        "remote-vread" => remote_vread(&mut rng),
        "write-read-mix" => write_read_mix(&mut rng),
        _ => cluster_scale(&mut rng),
    };
    Some(Generated { json, expect })
}

/// The paper's scheduling collapse: eight readers and one datanode share
/// a 2-core host on the vanilla path, starting 40–80 ms apart.
fn contended_vanilla(rng: &mut Rng) -> (String, Expect) {
    const CLIENTS: u64 = 8;
    const FILE_MB: u64 = 512;
    let mut vms = vec![];
    let mut files = vec![];
    let mut workloads = vec![];
    let mut start = 0;
    for i in 1..=CLIENTS {
        let (c, f) = (format!("c{i}"), format!("/in{i}"));
        vms.push(vm(&c, "h1", "client"));
        files.push(file(&f, FILE_MB, &["dn1".to_owned()], false));
        workloads.push(reader(&c, &f, 1024, start));
        start += rng.range(40, 80);
    }
    vms.push(vm("dn1", "h1", "datanode"));
    let json = scenario(
        world_seed(rng),
        "vanilla",
        None,
        vec![host(rng, "h1", 2)],
        vms,
        files,
        workloads,
        vec![],
    );
    // Cold vanilla reads copy 6 times, plus the checksum bytes.
    let expect = Expect {
        bytes: CLIENTS * FILE_MB * MB,
        min_copies: 5.0,
        max_copies: 6.01,
        dedup: false,
    };
    (json, expect)
}

/// The pure remote RDMA path: each of four hosts reads a file that lives
/// on another host's datanode (a seeded derangement), so no host serves
/// two remote readers and nothing contends.
fn remote_vread(rng: &mut Rng) -> (String, Expect) {
    const HOSTS: usize = 4;
    const FILE_MB: u64 = 512;
    // Sattolo's algorithm: a uniformly random single cycle, hence a
    // permutation without fixed points.
    let mut remote: Vec<usize> = (0..HOSTS).collect();
    for i in (1..HOSTS).rev() {
        let j = rng.range(0, i as u64 - 1) as usize;
        remote.swap(i, j);
    }
    let mut hosts = vec![];
    let mut vms = vec![];
    let mut files = vec![];
    let mut workloads = vec![];
    for i in 0..HOSTS {
        let h = format!("h{}", i + 1);
        hosts.push(host(rng, &h, 4));
        vms.push(vm(&format!("c{}", i + 1), &h, "client"));
        vms.push(vm(&format!("dn{}", i + 1), &h, "datanode"));
    }
    for (i, r) in remote.iter().enumerate() {
        let (c, f) = (format!("c{}", i + 1), format!("/in{}", i + 1));
        files.push(file(&f, FILE_MB, &[format!("dn{}", r + 1)], false));
        workloads.push(reader(&c, &f, 512, rng.range(0, 20)));
    }
    let json = scenario(
        world_seed(rng),
        "vread-rdma",
        None,
        hosts,
        vms,
        files,
        workloads,
        vec![],
    );
    let expect = Expect {
        bytes: HOSTS as u64 * FILE_MB * MB,
        min_copies: 3.0,
        max_copies: 3.0,
        dedup: false,
    };
    (json, expect)
}

/// Writes beside reads under vRead: a TestDFSIO write job shares h1 with
/// a half-busy lookbusy VM while a reader on h2 reads a 2-way replicated
/// input from its local replica. The write job is sized to finish last,
/// so a read-path gain that costs writes still lowers the end-to-end
/// throughput.
fn write_read_mix(rng: &mut Rng) -> (String, Expect) {
    const WRITE_FILES: u64 = 2;
    const WRITE_MB: u64 = 896;
    const READ_MB: u64 = 1024;
    let vms = vec![
        vm("writer", "h1", "client"),
        vm("reader", "h2", "client"),
        vm("dn1", "h1", "datanode"),
        vm("dn2", "h2", "datanode"),
        obj(vec![
            ("name", s("bg1")),
            ("host", s("h1")),
            ("role", s("lookbusy")),
            ("busy", n(0.5)),
        ]),
    ];
    let files = vec![file(
        "/input",
        READ_MB,
        &["dn1".to_owned(), "dn2".to_owned()],
        true,
    )];
    let outputs: Vec<Json> = (1..=WRITE_FILES).map(|i| s(format!("/out{i}"))).collect();
    let workloads = vec![
        obj(vec![
            ("kind", s("dfsio-write")),
            ("files", Json::Arr(outputs)),
            ("mb", n(WRITE_MB as f64)),
            ("client", s("writer")),
            ("start_ms", n(rng.range(0, 50) as f64)),
        ]),
        reader("reader", "/input", 1024, rng.range(0, 50)),
    ];
    let json = scenario(
        world_seed(rng),
        "vread-rdma",
        None,
        vec![host(rng, "h1", 4), host(rng, "h2", 4)],
        vms,
        files,
        workloads,
        vec![],
    );
    let expect = Expect {
        bytes: (WRITE_FILES * WRITE_MB + READ_MB) * MB,
        min_copies: 2.0,
        max_copies: 2.0,
        dedup: false,
    };
    (json, expect)
}

/// Scale: 20 hosts × (2 clients + 2 datanodes) = 80 VMs on the
/// content-addressed host store, 40 readers, a daemon crash/restart and
/// a link flap. Even hosts keep both replicas of their file co-resident
/// (the store dedups them); odd hosts put the second replica on another
/// seeded odd host.
///
/// The crash hits a seeded even host, whose two readers start at fixed
/// offsets so both are mid-read when its daemon dies. A reader caught by
/// the crash waits out the client timeout, and that straggler ends the
/// run; pinning who it catches keeps the simulated run length from
/// jumping between seeds (about one seed in twenty still ends early).
fn cluster_scale(rng: &mut Rng) -> (String, Expect) {
    const HOSTS: u64 = 20;
    const FILE_MB: u64 = 128;
    let mut hosts = vec![];
    let mut vms = vec![];
    for h in 1..=HOSTS {
        let hn = format!("h{h}");
        hosts.push(host(rng, &hn, 4));
        for side in ["a", "b"] {
            vms.push(vm(&format!("c{h}{side}"), &hn, "client"));
        }
        for side in ["a", "b"] {
            vms.push(vm(&format!("d{h}{side}"), &hn, "datanode"));
        }
    }
    let odd = |k: u64| 2 * k + 1;
    let crash = 2 * rng.range(1, HOSTS / 2);
    let flap = odd(rng.range(0, HOSTS / 2 - 1));
    let mut files = vec![];
    let mut workloads = vec![];
    for h in 1..=HOSTS {
        let second = if h % 2 == 0 {
            h
        } else {
            // another odd host: shift h's odd index by 1..HOSTS/2-1
            let k = (h / 2 + rng.range(1, HOSTS / 2 - 1)) % (HOSTS / 2);
            odd(k)
        };
        let f = format!("/f{h}");
        files.push(file(
            &f,
            FILE_MB,
            &[format!("d{h}a"), format!("d{second}b")],
            true,
        ));
        for (i, side) in ["a", "b"].into_iter().enumerate() {
            let start = if h == crash {
                60 * i as u64
            } else {
                rng.range(0, 200)
            };
            workloads.push(reader(&format!("c{h}{side}"), &f, 1024, start));
        }
    }
    let (crash, flap) = (format!("h{crash}"), format!("h{flap}"));
    let faults = vec![
        obj(vec![
            ("at_ms", n(150.0)),
            ("kind", s("daemon-crash")),
            ("host", s(&crash)),
        ]),
        obj(vec![
            ("at_ms", n(400.0)),
            ("kind", s("daemon-restart")),
            ("host", s(&crash)),
        ]),
        obj(vec![
            ("at_ms", n(250.0)),
            ("kind", s("link-flap")),
            ("host", s(&flap)),
            ("factor", n(10.0)),
            ("duration_ms", n(200.0)),
        ]),
    ];
    let json = scenario(
        world_seed(rng),
        "vread-rdma",
        Some(obj(vec![("mode", s("cas"))])),
        hosts,
        vms,
        files,
        workloads,
        faults,
    );
    // A read the crash interrupts keeps its two vRead copies and then
    // fetches again over the vanilla fallback (6 copies plus checksums).
    let expect = Expect {
        bytes: 2 * HOSTS * FILE_MB * MB,
        min_copies: 2.0,
        max_copies: 8.01,
        dedup: true,
    };
    (json, expect)
}
