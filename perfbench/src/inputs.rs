//! The one service configuration every workload runs, and the seeded
//! input generators. Everything the server receives is derived from the
//! workload seed here.

use dpmg_core::mechanism::{GshmMechanism, ReleaseMechanism};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_server::{AppState, Server, ServerConfig, ServiceBackend};
use dpmg_service::{DpmgService, SequentialServiceReference, ServiceConfig};
use dpmg_workload::scenarios::key_churn;
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const SHARDS: usize = 2;
pub const K: usize = 256;
pub const EPSILON: f64 = 0.9;
pub const DELTA: f64 = 1e-8;
pub const SERVER_THREADS: usize = 2;

pub const UNIVERSE: u64 = 1_000_000;
pub const ZIPF_S: f64 = 1.1;
/// Items per `POST /ingest` on `ingest` and `epoch_release`, and per write
/// on `query_mix`.
pub const BATCH: usize = 10_000;
/// Distinct pre-encoded bodies the closed loops cycle through (10⁶ items).
pub const POOL: usize = 100;
/// `ingest`: automatic epoch boundary every 10⁶ items.
pub const INGEST_EPOCH_LEN: u64 = 1_000_000;

/// `query_mix` seeding: 200 epochs of 20 000 key-churn items.
pub const CHURN_EPOCHS: usize = 200;
pub const CHURN_EPOCH_ITEMS: usize = 20_000;
pub const CHURN_PERIOD: usize = 50_000;
pub const CHURN_HEAD: u64 = 1_000;
/// Distinct write bodies `query_mix` cycles through.
pub const WRITE_POOL: usize = 50;
/// Phase A offered rate, requests per second over both connections.
pub const OFFERED_RPS: f64 = 10_000.0;
/// Every 1000th slot is a write; 500 is even, so writes all land on
/// connection 0 and reach the server in slot order.
pub const WRITE_EVERY: u64 = 1_000;
pub const WRITE_PHASE: u64 = 500;
/// Share of read slots that are `GET /topk?n=10` (the rest are point
/// queries), in percent.
pub const TOPK_PERCENT: u64 = 80;
/// Distinct pre-built point-query requests.
pub const POINT_KEYS: usize = 4_096;

pub fn per_epoch() -> PrivacyParams {
    PrivacyParams::new(EPSILON, DELTA).expect("valid per-epoch parameters")
}

/// A global budget no run can exhaust (δ alone affords 5·10⁷ epochs).
pub fn budget() -> PrivacyParams {
    PrivacyParams::new(1e12, 0.5).expect("valid budget")
}

pub fn mechanism() -> Box<dyn ReleaseMechanism<u64>> {
    Box::new(GshmMechanism::new(per_epoch()).expect("GSHM accepts (0.9, 1e-8)"))
}

pub fn service_config(epoch_len: Option<u64>) -> ServiceConfig {
    let config = ServiceConfig::new(SHARDS, K);
    match epoch_len {
        Some(len) => config.with_epoch_len(len),
        None => config,
    }
}

pub fn in_memory(epoch_len: Option<u64>, seed: u64) -> DpmgService<u64> {
    DpmgService::new(service_config(epoch_len), mechanism(), budget(), seed)
        .expect("service configuration is valid")
}

pub fn reference(epoch_len: Option<u64>, seed: u64) -> SequentialServiceReference<u64> {
    SequentialServiceReference::new(service_config(epoch_len), mechanism(), budget(), seed)
        .expect("reference configuration is valid")
}

pub fn app_state(backend: ServiceBackend) -> AppState {
    AppState::new(backend, per_epoch(), budget())
}

pub fn start_server(backend: ServiceBackend) -> Server {
    Server::start(
        ServerConfig::default().with_threads(SERVER_THREADS),
        app_state(backend),
    )
    .expect("loopback bind")
}

/// SplitMix64: derives independent seeds and per-slot choices.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}

/// The ROADMAP's canonical stream: Zipf(1.1) over 10⁶ keys.
pub fn zipf_items(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    Zipf::new(UNIVERSE, ZIPF_S).stream(n, &mut rng)
}

/// Zipf(1.1) over 10⁶ keys whose 1 000-key head rotates every 50 000
/// items.
pub fn churn_items(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    key_churn(n, UNIVERSE, ZIPF_S, CHURN_PERIOD, CHURN_HEAD, &mut rng)
}

/// One `query_mix` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Write,
    Topk,
    /// Index into the pre-built point-query requests.
    Point(usize),
}

/// The operation of slot `slot`, a pure function of the seed.
pub fn op_at(seed: u64, slot: u64) -> Op {
    if slot % WRITE_EVERY == WRITE_PHASE {
        return Op::Write;
    }
    let h = mix(sub_seed(seed, 3) ^ slot);
    if h % 100 < TOPK_PERCENT {
        Op::Topk
    } else {
        Op::Point(((h >> 32) % POINT_KEYS as u64) as usize)
    }
}

/// Point-query keys drawn from `items` (so mostly released heavy keys).
pub fn point_keys(seed: u64, items: &[u64]) -> Vec<u64> {
    (0..POINT_KEYS as u64)
        .map(|i| items[(mix(sub_seed(seed, 4) ^ i) % items.len() as u64) as usize])
        .collect()
}
