//! The library side of `dse-sweeps`. The sweeps themselves run through the
//! `zfgan dse` binary, one child process per invocation, started by
//! `run.py`; these subcommands compute what that loop is checked against
//! and time the layers underneath it, each in a fresh process so the
//! process-wide `UnrollChoice::search` memo starts empty.

use std::path::Path;
use std::time::Instant;

use zfgan_dataflow::{ArchKind, Dataflow, PhaseTuned};
use zfgan_dse::sweeps::{run_sweep, SWEEP_NAMES};
use zfgan_dse::DseConfig;
use zfgan_sim::ConvKind;
use zfgan_store::{decode_envelope, Store, StoreConfig};
use zfgan_workloads::GanSpec;

use crate::report::{ms, Report};

/// The four phase groups of fig15 with their PE budgets (ST phases 1200
/// PEs, W phases 480), as the sweep evaluates them.
const FIG15_GROUPS: [(ConvKind, usize); 4] = [
    (ConvKind::S, 1200),
    (ConvKind::T, 1200),
    (ConvKind::WGradS, 480),
    (ConvKind::WGradT, 480),
];

/// Writes every sweep's uncached canonical stream to `out/<sweep>.jsonl`:
/// the reference the cold and warm CLI streams must equal byte for byte.
pub fn reference(out: &Path, started: Instant) -> Result<String, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut rep = Report::default();
    for name in SWEEP_NAMES {
        let t = Instant::now();
        let run = run_sweep(name, &DseConfig::new("dse"))?;
        rep.info
            .insert(format!("{name}.compute_ms"), ms(t.elapsed()));
        let path = out.join(format!("{name}.jsonl"));
        std::fs::write(&path, &run.stream).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    rep.setup_s = started.elapsed().as_secs_f64();
    Ok(rep.to_json())
}

/// Times one uncached `run_sweep` (`dse.<sweep>.compute_ms`).
pub fn compute(sweep: &str) -> Result<String, String> {
    let t = Instant::now();
    let run = run_sweep(sweep, &DseConfig::new("dse"))?;
    let elapsed = ms(t.elapsed());
    if run.stream.is_empty() {
        return Err(format!("{sweep}: empty stream"));
    }
    let mut rep = Report::default();
    rep.layers
        .insert(format!("dse.{sweep}.compute_ms"), elapsed);
    Ok(rep.to_json())
}

/// Times the layers under the sweeps: `PhaseTuned::tune` on an empty memo
/// and `schedule_all` over fig15's phase sets, then per-cell
/// `Store::publish` and `Store::load_latest_for` on the payloads a cold
/// `zfgan dse` run published into `cache`.
pub fn layers(cache: &Path, scratch: &Path) -> Result<String, String> {
    let mut rep = Report::default();
    let sets: Vec<_> = GanSpec::all_paper_gans()
        .iter()
        .flat_map(|spec| {
            FIG15_GROUPS
                .iter()
                .map(|&(kind, budget)| (spec.phase_set(kind), budget))
                .collect::<Vec<_>>()
        })
        .collect();

    let t = Instant::now();
    let tuned: Vec<_> = sets
        .iter()
        .flat_map(|(phases, budget)| {
            ArchKind::ALL
                .into_iter()
                .map(move |arch| (PhaseTuned::tune(arch, *budget, phases), phases))
        })
        .collect();
    rep.layers
        .insert("dataflow.tune_ms".into(), ms(t.elapsed()));

    let t = Instant::now();
    let cycles: u64 = tuned
        .iter()
        .map(|(tuned, phases)| tuned.schedule_all(phases).cycles)
        .sum();
    rep.layers
        .insert("dataflow.schedule_ms".into(), ms(t.elapsed()));
    std::hint::black_box(cycles);

    let cells = published_cells(cache)?;
    if cells.is_empty() {
        return Err(format!("{}: no published cells", cache.display()));
    }
    let mut store = Store::open(scratch, StoreConfig::default()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (key, hash, payload) in &cells {
        store
            .publish(key, *hash, payload)
            .map_err(|e| format!("publish {key}: {e}"))?;
    }
    let per_cell = |d: std::time::Duration| ms(d) / cells.len() as f64;
    rep.layers
        .insert("store.publish_ms".into(), per_cell(t.elapsed()));
    let t = Instant::now();
    let mut loaded = Vec::with_capacity(cells.len());
    for (key, hash, _) in &cells {
        let l = store
            .load_latest_for(key, *hash)
            .map_err(|e| format!("load {key}: {e}"))?;
        loaded.push(l);
    }
    rep.layers
        .insert("store.load_ms".into(), per_cell(t.elapsed()));
    for ((key, _, payload), l) in cells.iter().zip(&loaded) {
        if l.as_ref().map(|l| &l.payload) != Some(payload) {
            return Err(format!(
                "{key}: loaded payload differs from the published one"
            ));
        }
    }
    Ok(rep.to_json())
}

/// `(store key, config hash, payload)` of the newest generation of every
/// key in a store directory, in key order.
fn published_cells(dir: &Path) -> Result<Vec<(String, u64, Vec<u8>)>, String> {
    let read = |p: &Path| std::fs::read_dir(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut keys: Vec<_> = read(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .collect();
    keys.sort_by_key(|e| e.file_name());
    let mut cells = Vec::new();
    for key in keys {
        let mut gens: Vec<_> = read(&key.path())?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "zfc"))
            .collect();
        gens.sort();
        let Some(newest) = gens.last() else { continue };
        let bytes = std::fs::read(newest).map_err(|e| format!("{}: {e}", newest.display()))?;
        let env = decode_envelope(&bytes).map_err(|e| format!("{}: {e}", newest.display()))?;
        let name = key.file_name().to_string_lossy().into_owned();
        cells.push((name, env.config_hash, env.payload));
    }
    Ok(cells)
}
