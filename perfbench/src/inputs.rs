//! Generated inputs: the edge stream, its arrival order, the hub
//! sessions, and the epoch → window mapping the answer checks rely on.

use dppr_graph::generators::{rmat, RmatParams};
use dppr_graph::{DynamicGraph, EdgeUpdate, GraphStream, SlidingWindow, VertexId};

/// R-MAT scale of the stream: 2^16 vertices, like the `pokec-sim` preset.
pub const SCALE: u32 = 16;
/// Distinct directed edges in the stream. With a 10% initial window this
/// leaves 3 600 slides of 500 edges, more than any run consumes.
pub const STREAM_EDGES: usize = 2_000_000;
/// Share of the stream in the initial window (the paper's 10%).
pub const INIT_FRACTION: f64 = 0.1;
/// Hub sessions every workload maintains.
pub const SESSIONS: usize = 8;
/// Logical edges per slide (`ServeConfig::default().batch`).
pub const BATCH: usize = 500;
/// Accuracy of every maintained vector (`ServeConfig::default().epsilon`).
pub const EPSILON: f64 = 1e-4;
/// Teleport probability (`ServeConfig::default().alpha`).
pub const ALPHA: f64 = 0.15;

/// splitmix64: derives independent sub-seeds from the one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything a workload feeds the program, all derived from one seed.
pub struct Inputs {
    pub stream: GraphStream,
    pub sources: Vec<VertexId>,
}

impl Inputs {
    /// Generates the edge set from `seed`, permutes it into an arrival
    /// order from a second seed, and picks the top-degree hubs of the
    /// initial window as the sessions.
    pub fn generate(seed: u64) -> Inputs {
        Inputs::with_edges(seed, STREAM_EDGES)
    }

    /// [`Inputs::generate`] with a chosen stream length (tests use small ones).
    pub fn with_edges(seed: u64, edges: usize) -> Inputs {
        let edges = rmat(SCALE, edges, RmatParams::default(), mix(seed, 1));
        let stream = GraphStream::directed(edges).permuted(mix(seed, 2));
        let sources = dppr_serve::pick_top_degree_sources(&stream, INIT_FRACTION, SESSIONS);
        Inputs { stream, sources }
    }
}

/// Window slides behind a published epoch. The write path publishes
/// epoch 1 for the initial window and one more epoch per slide, so with
/// one write shard epoch `e` covers the window after `e − 1` slides.
/// `None` for epoch 0, which no snapshot carries.
pub fn slides_at_epoch(epoch: u64) -> Option<usize> {
    epoch.checked_sub(1).map(|s| s as usize)
}

/// A graph that replays the workload's window independently of the
/// program, for the answer checks and the per-layer replays.
pub struct WindowReplay {
    window: SlidingWindow,
    graph: DynamicGraph,
    slides: usize,
}

impl WindowReplay {
    /// The initial window, applied edge by edge.
    pub fn new(stream: &GraphStream) -> WindowReplay {
        let window = SlidingWindow::new(stream.clone(), INIT_FRACTION);
        let mut graph = DynamicGraph::new();
        for u in window.initial_updates() {
            graph.apply(u);
        }
        WindowReplay {
            window,
            graph,
            slides: 0,
        }
    }

    /// Slides forward until `slides` slides have been applied; returns
    /// `None` if that is behind the current position or past the stream.
    pub fn advance_to(&mut self, slides: usize) -> Option<&DynamicGraph> {
        if slides < self.slides {
            return None;
        }
        while self.slides < slides {
            let batch = self.next_batch()?;
            for u in batch {
                self.graph.apply(u);
            }
        }
        Some(&self.graph)
    }

    /// The next slide's update batch, without applying it.
    pub fn next_batch(&mut self) -> Option<Vec<EdgeUpdate>> {
        let b = self.window.slide(BATCH)?;
        self.slides += 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::{MultiSourcePpr, PushVariant};
    use dppr_serve::{start, ServeConfig};
    use std::time::{Duration, Instant};

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::with_edges(5, 20_000);
        let b = Inputs::with_edges(5, 20_000);
        let c = Inputs::with_edges(6, 20_000);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.stream.edge_at(123), b.stream.edge_at(123));
        assert_ne!(
            (0..50).map(|i| a.stream.edge_at(i)).collect::<Vec<_>>(),
            (0..50).map(|i| c.stream.edge_at(i)).collect::<Vec<_>>()
        );
        assert_eq!(a.sources.len(), SESSIONS);
    }

    /// Pins the epoch → window mapping against the real server: after
    /// three slides it serves epoch 4, and its answer equals an
    /// in-process engine run over the window `slides_at_epoch(4)` names.
    #[test]
    fn epoch_maps_to_the_window_after_epoch_minus_one_slides() {
        let inputs = Inputs::with_edges(3, 20_000);
        let cfg = ServeConfig {
            max_slides: 3,
            threads: 1,
            ..ServeConfig::default()
        };
        let server = start(inputs.stream.clone(), INIT_FRACTION, &inputs.sources, cfg)
            .expect("server starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        while server
            .stats()
            .slides
            .load(std::sync::atomic::Ordering::SeqCst)
            < 3
        {
            assert!(Instant::now() < deadline, "server did not slide");
            std::thread::sleep(Duration::from_millis(5));
        }
        let source = inputs.sources[0];
        let reader = server.registry().domain().register_reader();
        let deadline = Instant::now() + Duration::from_secs(30);
        let snap = loop {
            let snap = server
                .registry()
                .lookup(source)
                .expect("session")
                .load(&reader);
            if snap.epoch() == 4 {
                break snap;
            }
            assert!(Instant::now() < deadline, "epoch stuck at {}", snap.epoch());
            std::thread::sleep(Duration::from_millis(5));
        };
        drop(reader);
        server.join();

        let slides = slides_at_epoch(snap.epoch()).expect("epoch ≥ 1");
        assert_eq!(slides, 3);
        let mut replay = WindowReplay::new(&inputs.stream);
        let mut graph = DynamicGraph::new();
        let mut multi = MultiSourcePpr::new(&inputs.sources, ALPHA, EPSILON, PushVariant::OPT);
        let window = SlidingWindow::new(inputs.stream.clone(), INIT_FRACTION);
        multi.apply_batch(&mut graph, &window.initial_updates());
        for _ in 0..slides {
            let batch = replay.next_batch().expect("stream long enough");
            multi.apply_batch(&mut graph, &batch);
        }
        assert_eq!(multi.state(0).estimates(), snap.estimates());
        assert_eq!(slides_at_epoch(0), None);
    }
}
