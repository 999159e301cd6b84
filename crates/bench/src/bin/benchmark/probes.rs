//! Outside-in probes of single layers: each builds a layer's public type
//! over data of the `mv_cycle` shape and times its public calls. A probe
//! reports the median over its samples; the sample count is printed.
//! Probes share nothing with the workloads' timed regions, so they say
//! what one call costs, not how often a workload makes it.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trijoin::{
    Database, Durability, GeneratedWorkload, JoinStrategy, Mutation, SystemParams, UpdateStream,
};
use trijoin_btree::{BTree, BTreeConfig};
use trijoin_common::{BaseTuple, Cost, Metrics, Surrogate, Telemetry, TelemetryConfig, ViewTuple};
use trijoin_exec::diff::{ji_sort_key, DiffLog};
use trijoin_exec::sort::KWayMerge;
use trijoin_exec::StoredRelation;
use trijoin_linearhash::LinearHash;
use trijoin_serve::{router, ClientTraffic, ServeConfig, Server};
use trijoin_storage::page::for_each_record;
use trijoin_storage::{Disk, DurableBackend, PageId, SimDisk, SlottedPage};

use crate::load::{CYCLE, LIGHT};
use crate::spans::{Recorder, Traced};
use crate::stats::median;
use crate::workload::{Scale, CYCLE_ACTIVITY};
use crate::Metric;

const TUPLE_BYTES: usize = 200;
/// Dirty pages per probed WAL commit.
const COMMIT_PAGES: u32 = 16;

type Probe = Result<Vec<Metric>, String>;

fn err(e: trijoin_common::Error) -> String {
    e.to_string()
}

/// Nanoseconds per call of `samples` batches of `batch` calls each.
fn time_batches(samples: usize, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let at = Instant::now();
            for _ in 0..batch {
                f();
            }
            at.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect()
}

/// Nanoseconds of one fallible call.
fn time_call<T>(f: impl FnOnce() -> trijoin_common::Result<T>) -> Result<f64, String> {
    let at = Instant::now();
    let out = f().map_err(err)?;
    let ns = at.elapsed().as_nanos() as f64;
    black_box(out);
    Ok(ns)
}

/// A metric from nanosecond samples: `median / per`, in `unit`.
fn from_ns(name: &'static str, ns: &[f64], per: f64, unit: &'static str) -> Metric {
    Metric::new(name, median(ns) / per, unit, ns.len())
}

fn tuple(i: u32) -> BaseTuple {
    BaseTuple::padded(Surrogate(i), i as u64, TUPLE_BYTES)
}

fn page_image(params: &SystemParams, fill: u8) -> Vec<u8> {
    vec![fill; params.page_size]
}

fn common(calls: usize) -> Probe {
    let t = tuple(7);
    let mut buf = Vec::with_capacity(TUPLE_BYTES);
    let encode = time_batches(calls, 64, || {
        buf.clear();
        black_box(&t).write_bytes(&mut buf);
    });
    let decode = time_batches(calls, 64, || {
        black_box(BaseTuple::from_bytes(black_box(&buf)).is_ok());
    });

    let metrics = Metrics::new();
    let id = metrics.counter_handle("probe.counter");
    let by_id = time_batches(calls, 64, || metrics.incr_id(black_box(id)));
    let by_name = time_batches(calls, 64, || metrics.incr(black_box("probe.counter")));

    // A registry the size of one serving shard's.
    let registry = Metrics::new();
    for i in 0..60 {
        registry.counter_add(&format!("probe.counter.{i}"), i);
    }
    for i in 0..10 {
        registry.gauge_set(&format!("probe.gauge.{i}"), i as f64);
        registry.observe(&format!("probe.histogram.{i}"), 1 << i);
    }
    let telemetry = Telemetry::new(TelemetryConfig::default(), "probe", "ops");
    telemetry.tick(0, &registry);
    let mut now = 0;
    let close = time_batches(calls, 1, || {
        now += 1;
        registry.incr("probe.counter.0");
        black_box(telemetry.force_close(now, &registry));
    });
    Ok(vec![
        from_ns("common.codec.encode_ns", &encode, 1.0, "ns"),
        from_ns("common.codec.decode_ns", &decode, 1.0, "ns"),
        from_ns("common.metrics.incr_id_ns", &by_id, 1.0, "ns"),
        from_ns("common.metrics.incr_str_ns", &by_name, 1.0, "ns"),
        from_ns("common.telemetry.close_us", &close, 1e3, "us"),
    ])
}

fn storage_memory(calls: usize, params: &SystemParams) -> Probe {
    let record = tuple(1).to_bytes();
    let per_page = params.page_size / (record.len() + 8);
    let mut full = SlottedPage::new(params.page_size);
    let insert = time_batches(calls, 1, || {
        let mut page = SlottedPage::new(params.page_size);
        for _ in 0..per_page {
            black_box(page.insert(&record).is_ok());
        }
        full = page;
    });
    let scan = time_batches(calls, 1, || {
        black_box(
            for_each_record(full.bytes(), |_, rec| {
                black_box(rec);
            })
            .is_ok(),
        );
    });

    let disk = SimDisk::new(params, Cost::new());
    let file = disk.create_file();
    let pages = 2 * CYCLE.mem_pages as u32;
    for p in 0..pages {
        disk.append_page(file, &page_image(params, p as u8)).map_err(err)?;
    }
    let mut at = 0u32;
    let mut next = || {
        at = (at + 1) % pages;
        PageId::new(file, at)
    };
    let image = page_image(params, 9);
    let write = time_batches(calls, 16, || {
        black_box(disk.write_page(next(), &image).is_ok());
    });
    let read = time_batches(calls, 16, || {
        black_box(disk.read_page(next()).is_ok());
    });
    let mut run = Vec::new();
    let read_run = time_batches(calls.div_ceil(4), 1, || {
        run.clear();
        black_box(disk.read_run(file, 0, 32, &mut run).is_ok());
    });
    Ok(vec![
        from_ns("storage.page.insert_ns", &insert, per_page as f64, "ns"),
        from_ns("storage.page.scan_ns_per_rec", &scan, per_page as f64, "ns"),
        from_ns("storage.disk.read_ns", &read, 1.0, "ns"),
        from_ns("storage.disk.write_ns", &write, 1.0, "ns"),
        from_ns("storage.disk.read_run_ns_per_page", &read_run, 32.0, "ns"),
    ])
}

/// A WAL-guarded file store under `dir` with `pages` committed pages.
fn durable_disk(params: &SystemParams, dir: &std::path::Path, pages: u32) -> Result<Disk, String> {
    let _ = std::fs::remove_dir_all(dir);
    let backend = DurableBackend::create(dir, params.page_size).map_err(err)?;
    let disk = SimDisk::with_backend(params, Cost::new(), Box::new(backend));
    let file = disk.create_file();
    for p in 0..pages {
        disk.append_page(file, &page_image(params, p as u8)).map_err(err)?;
    }
    disk.commit().map_err(err)?;
    Ok(disk)
}

fn storage_durable(calls: usize, params: &SystemParams) -> Probe {
    // fsync-bound calls: a tenth of the samples keeps the probe under a
    // second on a device with millisecond flushes.
    let commits = calls.div_ceil(10);
    let dir = crate::out_dir().join(format!("probe-wal-pid{}", std::process::id()));
    let file = trijoin_storage::FileId(0);
    let mut stamp = 0u8;
    let mut dirty = |disk: &Disk, first: u32| -> Result<(), String> {
        stamp = stamp.wrapping_add(1);
        for p in first..first + COMMIT_PAGES {
            disk.write_page(PageId::new(file, p), &page_image(params, stamp)).map_err(err)?;
        }
        Ok(())
    };

    let disk = durable_disk(params, &dir, 64)?;
    disk.checkpoint().map_err(err)?;
    // Overlay and committed layers are empty now: reads fall to the file.
    let mut read = Vec::new();
    let mut write = Vec::new();
    for i in 0..calls as u32 {
        let pid = PageId::new(file, i % 64);
        read.push(time_call(|| disk.read_page(pid))?);
    }
    for i in 0..calls as u32 {
        let image = page_image(params, i as u8);
        write.push(time_call(|| disk.write_page(PageId::new(file, i % 64), &image))?);
    }
    disk.commit().map_err(err)?;

    let (mut barrier, mut deferred, mut checkpoint) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..commits as u32 {
        dirty(&disk, (i % 4) * COMMIT_PAGES)?;
        barrier.push(time_call(|| disk.commit_with(Durability::Barrier))?);
    }
    for i in 0..commits as u32 {
        dirty(&disk, (i % 4) * COMMIT_PAGES)?;
        deferred.push(time_call(|| disk.commit_with(Durability::Deferred))?);
    }
    for _ in 0..commits.div_ceil(10) {
        for i in 0..8 {
            dirty(&disk, (i % 4) * COMMIT_PAGES)?;
            disk.commit().map_err(err)?;
        }
        checkpoint.push(time_call(|| disk.checkpoint())?);
    }
    drop(disk);

    // Recovery: crash with ~1 000 sealed frames in the log, then reopen.
    let mut recover = Vec::new();
    for _ in 0..commits.div_ceil(10) {
        let disk = durable_disk(params, &dir, 64)?;
        disk.checkpoint().map_err(err)?;
        let groups = 60;
        for i in 0..groups {
            dirty(&disk, (i % 4) * COMMIT_PAGES)?;
            disk.commit().map_err(err)?;
        }
        drop(disk);
        let frames = (groups * COMMIT_PAGES) as f64;
        let ns = time_call(|| DurableBackend::open(&dir, params.page_size))?;
        recover.push(ns / frames * 1_000.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        from_ns("storage.file.read_us", &read, 1e3, "us"),
        from_ns("storage.file.write_us", &write, 1e3, "us"),
        from_ns("storage.wal.commit_barrier_us", &barrier, 1e3, "us"),
        from_ns("storage.wal.commit_deferred_us", &deferred, 1e3, "us"),
        from_ns("storage.wal.checkpoint_ms", &checkpoint, 1e6, "ms"),
        from_ns("storage.wal.recover_ms_per_1k_frames", &recover, 1e6, "ms"),
    ])
}

fn btree(calls: usize, params: &SystemParams, gen: &GeneratedWorkload) -> Probe {
    let disk = SimDisk::new(params, Cost::new());
    let n = gen.r.len() as u64;
    // Even keys loaded, odd keys inserted and removed again.
    let value = tuple(0).to_bytes();
    let entries = (0..n).map(|k| (2 * k, value.clone()));
    let mut tree = BTree::bulk_load(&disk, BTreeConfig::clustered(params, TUPLE_BYTES), entries)
        .map_err(err)?;
    let mut rng = StdRng::seed_from_u64(11);
    let mut lookup = Vec::new();
    for _ in 0..calls {
        let key = 2 * rng.gen_range(0..n);
        lookup.push(time_call(|| tree.lookup(key))?);
    }
    let odd: Vec<u64> = (0..calls).map(|_| 2 * rng.gen_range(0..n) + 1).collect();
    let (mut insert, mut remove) = (Vec::new(), Vec::new());
    for &key in &odd {
        insert.push(time_call(|| tree.insert(key, value.clone()))?);
    }
    for &key in &odd {
        remove.push(time_call(|| tree.remove_exact(key, &value))?);
    }
    let mut scan = Vec::new();
    for _ in 0..calls.div_ceil(50) {
        let ns = time_call(|| tree.for_each(|_, v| black_box(v.len()) > 0))?;
        scan.push(ns / tree.len() as f64);
    }
    // One epoch's worth of sorted point fetches per call.
    let batch = (CYCLE_ACTIVITY * n as f64) as usize;
    let mut fetch = Vec::new();
    for _ in 0..calls.div_ceil(50) {
        let mut keys: Vec<u64> = (0..batch).map(|_| 2 * rng.gen_range(0..n)).collect();
        keys.sort_unstable();
        let ns = time_call(|| {
            tree.fetch_many(&keys, |_, v| {
                black_box(v);
            })
        })?;
        fetch.push(ns / batch as f64);
    }

    let s = StoredRelation::build(&disk, params, "S", gen.s.clone(), true).map_err(err)?;
    let mut probe = Vec::new();
    for _ in 0..calls {
        let mut keys: Vec<u64> =
            (0..8).map(|_| rng.gen_range(0..gen.groups.max(1) as u64)).collect();
        keys.sort_unstable();
        probe.push(time_call(|| {
            s.probe_inverted(&keys, |_, sur| {
                black_box(sur);
            })
        })?);
    }
    Ok(vec![
        from_ns("btree.lookup_us", &lookup, 1e3, "us"),
        from_ns("btree.insert_us", &insert, 1e3, "us"),
        from_ns("btree.remove_us", &remove, 1e3, "us"),
        from_ns("btree.scan_ns_per_tuple", &scan, 1.0, "ns"),
        from_ns("btree.fetch_many_ns_per_key", &fetch, 1.0, "ns"),
        from_ns("btree.inverted_probe_us", &probe, 1e3, "us"),
    ])
}

fn linearhash(calls: usize, params: &SystemParams, gen: &GeneratedWorkload) -> Probe {
    // The materialized view's file: one 400-byte record per join tuple.
    let view = trijoin_exec::oracle::join_tuples(&gen.r, &gen.s);
    let record_bytes = trijoin_exec::mv::view_tuple_bytes(TUPLE_BYTES, TUPLE_BYTES);
    let disk = SimDisk::new(params, Cost::new());
    let records =
        view.iter().map(|v: &ViewTuple| (trijoin_common::types::hash_key(v.key), v.to_bytes()));
    let mut file =
        LinearHash::build(&disk, params, records, view.len() as u64, record_bytes).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(13);
    let mut pick = || &view[rng.gen_range(0..view.len())];
    let (mut lookup, mut insert, mut scan, mut rewrite) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..calls {
        let hash = trijoin_common::types::hash_key(pick().key);
        lookup.push(time_call(|| file.lookup(hash))?);
    }
    for _ in 0..calls {
        let v = pick();
        let (hash, bytes) = (trijoin_common::types::hash_key(v.key), v.to_bytes());
        insert.push(time_call(|| file.insert(hash, &bytes))?);
    }
    for _ in 0..calls {
        // A bucket that holds view tuples: most are empty, the view has
        // one key per matched group.
        let bucket = file.addressing().addr(trijoin_common::types::hash_key(pick().key));
        let at = Instant::now();
        let records = file.scan_bucket(bucket).map_err(err)?;
        scan.push(at.elapsed().as_nanos() as f64);
        rewrite.push(time_call(|| file.rewrite_bucket(bucket, records))?);
    }
    Ok(vec![
        from_ns("linearhash.lookup_us", &lookup, 1e3, "us"),
        from_ns("linearhash.insert_us", &insert, 1e3, "us"),
        from_ns("linearhash.scan_bucket_us", &scan, 1e3, "us"),
        from_ns("linearhash.rewrite_bucket_us", &rewrite, 1e3, "us"),
    ])
}

fn exec_parts(calls: usize, params: &SystemParams, gen: &GeneratedWorkload) -> Probe {
    let disk = SimDisk::new(params, Cost::new());
    let mut r = StoredRelation::build(&disk, params, "R", gen.r.clone(), false).map_err(err)?;
    let mut stream = gen.update_stream();
    let mut apply = Vec::new();
    for _ in 0..calls {
        let u = stream.next_update();
        apply.push(time_call(|| r.apply_update(&u.old, &u.new))?);
    }

    // One epoch of differentials through a log of the MV's buffer size.
    let epoch = gen.updates_per_epoch() as usize;
    let z = trijoin::MaterializedView::z_pages(params);
    let per_page = params.tuples_per_full_page(TUPLE_BYTES);
    let (mut add, mut seal, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..calls.div_ceil(50) {
        let cost = Cost::new();
        let mut log = DiffLog::new(&disk, &cost, z, per_page, false, |t| ji_sort_key(t.sur.0));
        let tuples: Vec<BaseTuple> = (0..epoch).map(|_| stream.next_update().new).collect();
        let at = Instant::now();
        for t in tuples {
            log.add(t).map_err(err)?;
        }
        add.push(at.elapsed().as_nanos() as f64 / epoch as f64);
        seal.push(time_call(|| log.seal())? / epoch as f64 * 1_000.0);
        let at = Instant::now();
        let merged = log.merged().map_err(err)?.count();
        merge.push(at.elapsed().as_nanos() as f64 / merged.max(1) as f64);
        log.destroy();
    }

    let mut kway = Vec::new();
    let runs: Vec<Vec<u64>> = (0..4u64).map(|s| (0..10_000).map(|i| i * 4 + s).collect()).collect();
    for _ in 0..calls.div_ceil(50) {
        let sources: Vec<_> = runs.iter().cloned().map(Vec::into_iter).collect();
        let at = Instant::now();
        let items = KWayMerge::new(sources, |x: &u64| *x, Cost::new()).count();
        kway.push(at.elapsed().as_nanos() as f64 / items as f64);
    }

    let workload = gen.measured();
    let model = time_batches(calls, 1, || {
        black_box(trijoin_model::all_costs(params, black_box(&workload)));
    });
    Ok(vec![
        from_ns("exec.relation.apply_update_us", &apply, 1e3, "us"),
        from_ns("exec.diff.add_ns", &add, 1.0, "ns"),
        from_ns("exec.diff.seal_us_per_1k", &seal, 1e3, "us"),
        from_ns("exec.diff.merge_ns_per_tuple", &merge, 1.0, "ns"),
        from_ns("exec.sort.kway_ns_per_item", &kway, 1.0, "ns"),
        from_ns("model.all_costs_us", &model, 1e3, "us"),
    ])
}

/// The three strategies side by side on one database, an epoch of
/// updates between queries — the `*_cycle` rounds taken apart.
fn strategies(calls: usize, params: &SystemParams, gen: &GeneratedWorkload) -> Probe {
    let mut db = Database::new(params, gen.r.clone(), gen.s.clone()).map_err(err)?;
    let rec = Recorder::default();
    let mut mv = db.materialized_view().map_err(err)?;
    let mut ji = db.join_index().map_err(err)?;
    let mut stream: UpdateStream = gen.update_stream();
    let (mut log_mv, mut log_ji, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exec_mv, mut exec_ji, mut query_self) = (Vec::new(), Vec::new(), Vec::new());
    let mut hh = Traced { inner: Box::new(db.hybrid_hash()), rec: rec.clone() };
    let mut exec_hh = Vec::new();
    for _ in 0..calls.div_ceil(100).max(3) {
        for _ in 0..gen.updates_per_epoch() {
            let u = stream.next_update();
            log_mv.push(time_call(|| mv.on_update(&u))?);
            log_ji.push(time_call(|| ji.on_update(&u))?);
            apply.push(time_call(|| db.apply_r_update(&u))?);
        }
        // `Database::query` around a traced strategy, straight after the
        // updates as in a `*_cycle` round: its own time is the call minus
        // the `strategy.execute` span inside it.
        rec.set_on(true);
        let whole = time_call(|| db.query(&mut hh))?;
        rec.set_on(false);
        let inner: u64 = rec.take().iter().map(|s| s.busy_ns).sum();
        exec_hh.push(inner as f64);
        query_self.push(whole - inner as f64);
        exec_mv.push(time_call(|| trijoin::execute_collect(&mut mv, db.r(), db.s()))?);
        exec_ji.push(time_call(|| trijoin::execute_collect(&mut ji, db.r(), db.s()))?);
    }
    let spilled = db.metrics().gauge("hh.spilled_partitions").unwrap_or(0.0);
    Ok(vec![
        from_ns("exec.mv.on_update_ns", &log_mv, 1.0, "ns"),
        from_ns("exec.ji.on_update_ns", &log_ji, 1.0, "ns"),
        from_ns("core.apply_r_update_us", &apply, 1e3, "us"),
        from_ns("exec.mv.execute_ms", &exec_mv, 1e6, "ms"),
        from_ns("exec.ji.execute_ms", &exec_ji, 1e6, "ms"),
        from_ns("exec.hh.execute_ms", &exec_hh, 1e6, "ms"),
        Metric::new("exec.hh.spilled_partitions", spilled, "count", exec_hh.len()),
        from_ns("core.query_self_us", &query_self, 1e3, "us"),
    ])
}

fn light_config(shards: usize) -> ServeConfig {
    ServeConfig {
        batch: 32,
        seed: crate::DEFAULT_SEED,
        ..ServeConfig::new(LIGHT.params(1), shards)
    }
}

fn serve_calls(calls: usize, light: &GeneratedWorkload) -> Probe {
    let mut out = Vec::new();
    for (shards, name) in [
        (1, "serve.noop_roundtrip_us.1shard"),
        (2, "serve.noop_roundtrip_us.2shard"),
        (4, "serve.noop_roundtrip_us.4shard"),
    ] {
        let server =
            Server::start(&light_config(shards), light.r.clone(), light.s.clone()).map_err(err)?;
        let session = server.session().map_err(err)?;
        let mut trips = Vec::new();
        for _ in 0..calls {
            // On a server without durable storage a commit is a fan-out to
            // every shard and back with no engine work (a flush with
            // nothing pending never leaves the scheduler).
            trips.push(time_call(|| session.commit())?);
        }
        out.push(from_ns(name, &trips, 1e3, "us"));
    }

    let config = light_config(4);
    let server = Server::start(&config, light.r.clone(), light.s.clone()).map_err(err)?;
    let session = server.session().map_err(err)?;
    let mut client = ClientTraffic::split(light, &config, 1).remove(0);
    let mut enqueue = Vec::new();
    for _ in 0..calls {
        let m = client.next_mutation();
        enqueue.push(time_call(|| session.update_r(m))?);
    }
    session.flush().map_err(err)?;
    drop(server);
    out.push(from_ns("serve.enqueue_ns", &enqueue, 1.0, "ns"));

    let mut route = Vec::new();
    for _ in 0..calls {
        let batch: Vec<Mutation> = (0..16).map(|_| client.next_mutation()).collect();
        let at = Instant::now();
        for m in batch {
            black_box(router::route(m, 4));
        }
        route.push(at.elapsed().as_nanos() as f64 / 16.0);
    }
    out.push(from_ns("serve.router.route_ns", &route, 1.0, "ns"));
    Ok(out)
}

/// The `serve_light` rounds on bare per-shard engines, one after the
/// other on this thread: what the work costs with no serving layer.
fn engine_floor(calls: usize, light: &GeneratedWorkload) -> Probe {
    const SHARDS: usize = 4;
    let params = LIGHT.params(1);
    let mut engines = Vec::new();
    for (r, s) in light.partition(SHARDS) {
        let db = Database::new(&params, r, s).map_err(err)?;
        let hh = db.hybrid_hash();
        engines.push((db, hh));
    }
    let mut client = ClientTraffic::split(light, &light_config(SHARDS), 1).remove(0);
    let mut rounds = Vec::new();
    for _ in 0..calls.div_ceil(5) {
        let epoch: Vec<Mutation> =
            (0..light.updates_per_epoch()).map(|_| client.next_mutation()).collect();
        let at = Instant::now();
        for m in epoch {
            for (shard, part) in router::route(m, SHARDS) {
                engines[shard].0.apply_r_mutation(&part).map_err(err)?;
            }
        }
        let mut rows = Vec::new();
        for (db, hh) in engines.iter_mut() {
            rows.extend(db.query(hh).map_err(err)?);
        }
        rows.sort_by_key(|t| (t.r_sur, t.s_sur));
        rounds.push(at.elapsed().as_nanos() as f64);
        black_box(rows);
    }
    Ok(vec![from_ns("serve.engine_floor_ms", &rounds, 1e6, "ms")])
}

/// Every probe, in layer order.
pub fn run(scale: &Scale) -> Probe {
    let calls = scale.probe_calls;
    let params = CYCLE.params(scale.data_div);
    let gen = CYCLE.spec(CYCLE_ACTIVITY, crate::DEFAULT_SEED, scale.data_div).generate();
    let light = LIGHT.spec(0.005, crate::DEFAULT_SEED, scale.data_div).generate();
    let mut out = common(calls)?;
    out.extend(storage_memory(calls, &params)?);
    out.extend(storage_durable(calls, &params)?);
    out.extend(btree(calls, &params, &gen)?);
    out.extend(linearhash(calls, &params, &gen)?);
    out.extend(exec_parts(calls, &params, &gen)?);
    out.extend(strategies(calls, &params, &gen)?);
    out.extend(serve_calls(calls, &light)?);
    out.extend(engine_floor(calls, &light)?);
    Ok(out)
}
