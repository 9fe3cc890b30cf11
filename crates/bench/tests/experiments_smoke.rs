//! Smoke tests of the experiment harness: the paper-shape invariants the
//! figures rest on must hold on every build, not just when `repro` runs.

use vread_bench::experiments;

use vread_bench::Table;

/// Every table the experiment `id` renders, in runner order.
fn tables(id: &str) -> Vec<Table> {
    let registry = experiments::registry();
    let (_, runner) = registry
        .iter()
        .find(|(i, _)| *i == id)
        .unwrap_or_else(|| panic!("experiment {id} not registered"));
    runner()
}

fn table(id: &str) -> Table {
    tables(id)
        .into_iter()
        .find(|t| t.id.starts_with(id))
        .expect("runner returned its table")
}

/// Index into `Row::values` of the column headed `name`.
fn col(t: &Table, name: &str) -> usize {
    t.columns
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("{}: no column {name:?} in {:?}", t.id, t.columns))
        - 1
}

/// Asserts vRead beats vanilla in every `vanilla-Nvms` / `vRead-Nvms`
/// cell of the `n` tables experiment `id` renders (Figures 9, 11, 12):
/// a higher value when `higher_wins`, a lower one otherwise.
fn vread_wins_every_cell(id: &str, n: usize, higher_wins: bool) -> Vec<Table> {
    let ts = tables(id);
    assert_eq!(ts.len(), n, "{id}: table count");
    for t in &ts {
        for vms in [2, 4] {
            let van = col(t, &format!("vanilla-{vms}vms"));
            let vr = col(t, &format!("vRead-{vms}vms"));
            for row in &t.rows {
                let (vanilla, vread) = (row.values[van], row.values[vr]);
                assert!(
                    if higher_wins {
                        vread > vanilla
                    } else {
                        vread < vanilla
                    },
                    "{} {} {vms}vms: vRead {vread} vs vanilla {vanilla}",
                    t.id,
                    row.label
                );
            }
        }
    }
    ts
}

#[test]
fn fig3_shape_lookbusy_drop() {
    let t = table("fig3");
    for row in &t.rows {
        let (quiet, busy, drop) = (row.values[0], row.values[1], row.values[2]);
        assert!(
            busy < quiet,
            "{}: contention must cost throughput",
            row.label
        );
        assert!(
            (5.0..40.0).contains(&drop),
            "{}: drop {drop}% outside the paper's ballpark (~20%)",
            row.label
        );
    }
    // rate decreases with request size
    let rates: Vec<f64> = t.rows.iter().map(|r| r.values[0]).collect();
    assert!(rates[0] > rates[1] && rates[1] > rates[2]);
}

#[test]
fn fig2_inter_vm_is_slower_than_local_and_the_gap_widens_on_reread() {
    let ts = tables("fig2");
    let find = |id: &str| {
        ts.iter()
            .find(|t| t.id == id)
            .unwrap_or_else(|| panic!("fig2: no table {id}"))
    };
    // Per request size: inter-VM delay over local delay, which must
    // exceed 1 (HDFS pays the virtual network and the datanode).
    let ratios = |t: &Table| -> Vec<(String, f64)> {
        let (inter, local) = (col(t, "inter-VM"), col(t, "local"));
        assert!(!t.rows.is_empty(), "{}: no rows", t.id);
        t.rows
            .iter()
            .map(|row| {
                let (i, l) = (row.values[inter], row.values[local]);
                assert!(
                    i > l,
                    "{} {}: inter-VM {i} ms not above local {l} ms",
                    t.id,
                    row.label
                );
                (row.label.clone(), i / l)
            })
            .collect()
    };
    let (cold, warm) = (ratios(find("fig2a")), ratios(find("fig2b")));
    assert_eq!(cold.len(), warm.len(), "fig2a and fig2b row counts");
    for ((size, read), (size_b, reread)) in cold.iter().zip(&warm) {
        assert_eq!(size, size_b, "fig2a and fig2b row order");
        assert!(
            reread > read,
            "{size}: inter/local {reread:.2}x on re-read must exceed {read:.2}x cold"
        );
    }
}

#[test]
fn ablate_hve_on_beats_hve_off() {
    let t = table("ablate-hve");
    let read = col(&t, "read");
    let row = |prefix: &str| {
        t.rows
            .iter()
            .find(|r| r.label.starts_with(prefix))
            .unwrap_or_else(|| panic!("ablate-hve: no row {prefix:?}"))
            .values[read]
    };
    let (on, off) = (row("HVE on"), row("HVE off"));
    assert!(on > off, "HVE on {on} MB/s not above HVE off {off} MB/s");
}

#[test]
fn fig13_shape_write_overhead_negligible() {
    let t = table("fig13");
    for row in &t.rows {
        let overhead = row.values[2];
        assert!(
            overhead.abs() < 2.0,
            "{}: mount-refresh overhead {overhead}% must be negligible",
            row.label
        );
    }
}

#[test]
fn ablate_bypass_shape_loses_page_cache() {
    let t = table("ablate-bypass");
    let mounted = &t.rows[0];
    let bypass = &t.rows[1];
    // cold reads comparable
    assert!((mounted.values[0] / bypass.values[0] - 1.0).abs() < 0.2);
    // mounted re-reads fly; bypass re-reads stay disk-bound
    assert!(
        mounted.values[1] > bypass.values[1] * 2.0,
        "mounted re-read {} vs bypass {}",
        mounted.values[1],
        bypass.values[1]
    );
    assert!(
        (bypass.values[1] / bypass.values[0] - 1.0).abs() < 0.1,
        "bypass re-read must look like a cold read"
    );
}

#[test]
fn ablate_cas_sibling_rereads_map_at_double_capacity() {
    let t = table("ablate-cas");
    let (reread, copies, capacity) = (
        col(&t, "sibling re-read"),
        col(&t, "copies/read"),
        col(&t, "capacity_x"),
    );
    let lru = t
        .rows
        .iter()
        .find(|r| r.label == "lru")
        .expect("ablate-cas: no lru row");
    assert_eq!(lru.values[copies], 2.0, "lru copies/read");
    assert_eq!(lru.values[capacity], 1.0, "lru capacity_x");
    let cas: Vec<_> = t
        .rows
        .iter()
        .filter(|r| r.label.starts_with("cas"))
        .collect();
    assert!(!cas.is_empty(), "ablate-cas: no cas rows");
    for row in cas {
        assert!(
            row.values[reread] >= 3.0 * lru.values[reread],
            "{}: sibling re-read {} MB/s not 3x lru's {} MB/s",
            row.label,
            row.values[reread],
            lru.values[reread]
        );
        assert_eq!(row.values[copies], 1.0, "{}: copies/read", row.label);
        assert_eq!(row.values[capacity], 2.0, "{}: capacity_x", row.label);
    }
}

#[test]
fn fig9_vread_cuts_delay_and_the_gap_widens_at_4vms() {
    for t in vread_wins_every_cell("fig9", 2, false) {
        let (v2, r2) = (col(&t, "vanilla-2vms"), col(&t, "vRead-2vms"));
        let (v4, r4) = (col(&t, "vanilla-4vms"), col(&t, "vRead-4vms"));
        for row in &t.rows {
            let gap2 = row.values[v2] - row.values[r2];
            let gap4 = row.values[v4] - row.values[r4];
            assert!(
                gap4 > gap2,
                "{} {}: vRead's saving must widen under contention ({gap2} ms at 2vms, {gap4} ms at 4vms)",
                t.id,
                row.label
            );
        }
    }
}

#[test]
fn fig11_vread_throughput_beats_vanilla_everywhere() {
    vread_wins_every_cell("fig11", 6, true);
}

#[test]
fn fig12_vread_cpu_below_vanilla_everywhere() {
    vread_wins_every_cell("fig12", 6, false);
}

#[test]
fn ablate_ring_reread_beats_cold_read_at_every_slot_size() {
    let t = table("ablate-ring");
    let (read, reread) = (col(&t, "read"), col(&t, "re-read"));
    assert!(!t.rows.is_empty());
    for row in &t.rows {
        assert!(
            row.values[reread] > row.values[read],
            "{}: re-read {} MB/s not above read {} MB/s",
            row.label,
            row.values[reread],
            row.values[read]
        );
    }
}

#[test]
fn ablate_sriov_vread_beats_both_vanilla_variants() {
    let t = table("ablate-sriov");
    let row = |label: &str| {
        t.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("ablate-sriov: no row {label:?}"))
    };
    let vread = row("vRead");
    for vanilla in [row("vanilla"), row("vanilla + SR-IOV")] {
        for (c, name) in t.columns[1..].iter().enumerate() {
            assert!(
                vread.values[c] > vanilla.values[c],
                "{name}: vRead {} MB/s not above {} {} MB/s",
                vread.values[c],
                vanilla.label,
                vanilla.values[c]
            );
        }
    }
}

#[test]
fn registry_ids_unique_and_runnable_listing() {
    let reg = experiments::registry();
    let mut ids: Vec<&str> = reg.iter().map(|(i, _)| *i).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate experiment ids");
    // every paper table/figure is covered
    for wanted in [
        "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "table2",
        "table3",
    ] {
        assert!(ids.contains(&wanted), "missing experiment {wanted}");
    }
}
