//! The policy optimizer of §4.2: an exact search over the policy space
//! `(N, μ, A_g, F_g, r_w, r_c)` that maximizes modeled generation throughput subject
//! to the GPU/CPU memory constraints.
//!
//! The paper solves the same problem with a small MILP. The grid here has a few
//! tens of thousands of cells, and the search returns exactly what scoring every
//! cell in enumeration order would: the same policy (the first of equal maxima)
//! and the same throughput, bit for bit. It does less work in four ways, and a
//! fifth point shows why the order it works in does not matter:
//!
//! * **A memory cut before any cost (MILP presolve).** A row's static GPU
//!   weights and host weights depend on `r_w` alone, its weight buffer on
//!   `(F_g, r_w)` and its activation workspace on `μ`. Every other term of the
//!   GPU total and of the host floor below is a byte count, never below 0. So
//!   when static weights + weight buffer + activations overflow the GPU, or the
//!   host weights overflow the host, no micro-batch count, `A_g` or `r_c` of
//!   that `(μ, F_g, r_w)` fits, and the row cut below would end the row at its
//!   first count. The search checks this floor for every `(μ, F_g, r_w)` before
//!   it costs anything, with the same [`CapacityModel`] helpers that build the
//!   row's memory terms, so the two checks cannot drift apart. A `μ` with no
//!   row that fits gets no HRM task durations and no bounds, a
//!   `(μ, A_g, F_g, r_c)` class with none never enters the heap, and a popped
//!   class expands only the rows that fit. The cut drops only rows without a
//!   feasible candidate, so it stays exact under any objective (Savelsbergh,
//!   *Preprocessing and Probing Techniques for Mixed Integer Programming
//!   Problems*, 1994).
//! * **A sound row cut.** For each `(μ, A_g, F_g, r_w, r_c)` the micro-batch
//!   counts run in ascending order, and the row ends at the first count whose
//!   *batch-monotone* memory floor no longer fits: the GPU total, or host weights
//!   plus host KV cache. Every term of those grows with `N`, so no later count can
//!   fit. The row does not end at the first infeasible candidate, because the full
//!   host requirement is not monotone: the pinned staging pages shrink as `N/μ`
//!   grows, so near the model's weight size a larger batch can fit where a
//!   smaller one did not. Candidates that pass the floor but not the full memory
//!   check are skipped. Each candidate keeps its enumeration index, and a tie goes
//!   to the lower index, so the cut order picks the same policy.
//! * **Hoisted costs.** Every micro-batch of a grid cell has `μ` tokens, so the
//!   HRM task durations are built once per `μ`. What depends only on the
//!   node, the model and the grid is built once per optimizer, by its first
//!   search, into its `SearchTables`: the placement classes, the sorted
//!   micro-batch counts, each `(F_g, r_w)` row's resident and host weights,
//!   weight buffer, streamed bytes and weight streams, and each `μ`'s
//!   context-free task durations (every task but the decode attention).
//!   [`PolicyOptimizer::with_search_space`] drops the tables. A search then
//!   prices only what the workload moves: each `μ`'s decode attention and
//!   KV bytes at the workload's decode context, its activation workspace and
//!   its prefill FLOPs; the KV transfer once per `(μ, r_c)`; and the prefill
//!   FLOPs of a batch on first use, as FLOPs alone, without the prefill's
//!   byte counts. The tables are built on the first search rather than in
//!   [`PolicyOptimizer::new`] because many optimizers never search, or search
//!   once: an evaluator's set-up should not pay for them. Scoring and the
//!   memory check go through the same [`CostModel`] and [`CapacityModel`]
//!   code as [`CostModel::generation_throughput`] and
//!   [`CapacityModel::requirement`], so the floating-point operations are
//!   identical. A class is its lane terms plus the position and stride of its
//!   cells, and the cells are generated as they are costed.
//! * **A class bound, visited best first (branch and bound).** Within a row every
//!   micro-batch costs the same, so with `n = N/μ` each lane of Eq. 12's layer
//!   time is at least `n` times its per-micro-batch term `s`, and prefill is at
//!   least its compute, `n · P_μ`. The throughput of every count in the row is
//!   therefore at most `μ·n·g / (n·P_μ + g·L·n·s_μ) = μ·g / (P_μ + g·L·s_μ)`,
//!   where `s_μ` is the largest lane. The per-micro-batch lanes depend on
//!   `(μ, A_g, F_g, r_c)` alone: `r_w` enters only the weight stream, which is
//!   paid once per layer and left out of the bound, and the memory check. So
//!   one bound covers every `r_w` row of a `(μ, A_g, F_g, r_c)` class, and the
//!   default grid needs at most 17 × 12 bounds for its 1,632 rows. One pass
//!   bounds every class of a `μ`: `P_μ` once, the KV transfer once per `r_c`,
//!   then each class's lanes. The classes go into a max-heap as a bound and
//!   a class index (Land and Doig's best-first order), a NaN bound ordering
//!   as +∞. They are popped in decreasing order, and each
//!   expands into its `r_w` rows that pass the memory cut, which go through the
//!   row cut and the hoisted costs above.
//!   The search stops at the first bound strictly below the best score found
//!   so far: no class left could win or tie. The bound carries a `1 + 1e-9`
//!   slack for rounding, and a NaN or infinite bound never prunes. A critical
//!   circuit through the lanes is never shorter than any one lane's sum, so the
//!   bound stays sound for a period-based layer time too, as long as it keeps
//!   leaving out the weight stream.
//! * **Visiting order cannot change the winner.** A candidate replaces the
//!   incumbent when it scores higher, or scores the same at a lower enumeration
//!   index. Scores are never NaN, because `Seconds::scale` clamps at zero, so
//!   this is a strict total order on candidates, and its maximum is the same
//!   whichever order the candidates are met in: the first maximum of the
//!   enumeration order, as the exhaustive search keeps it.

use crate::capacity::{CapacityModel, RowWeights};
use crate::cost::{
    ContextFreeCosts, CostModel, LaneClass, MicroBatchBound, RowCosts, WeightStreams,
};
use crate::policy::{Policy, WorkloadShape};
use moe_hardware::{ByteSize, NodeSpec, Seconds};
use moe_model::MoeModelConfig;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Configuration of the search grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Candidate micro-batch sizes (`μ`).
    pub micro_batch_sizes: Vec<u64>,
    /// Candidate numbers of micro-batches per batch (`N / μ`).
    pub micro_batch_counts: Vec<u64>,
    /// Candidate fractions of weights held statically on the GPU (`r_w`).
    pub weight_ratios: Vec<f64>,
    /// Candidate fractions of KV cache held on the GPU (`r_c`).
    pub kv_ratios: Vec<f64>,
    /// Whether to consider running attention on the GPU (`A_g = 1`).
    pub allow_gpu_attention: bool,
    /// Whether to consider running the MoE FFN on the CPU (`F_g = 0`).
    pub allow_cpu_ffn: bool,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            micro_batch_sizes: vec![
                1, 2, 4, 8, 12, 16, 24, 32, 36, 48, 64, 80, 96, 128, 160, 200, 256,
            ],
            micro_batch_counts: vec![
                1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 64, 96, 128,
            ],
            weight_ratios: vec![0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0],
            kv_ratios: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            allow_gpu_attention: true,
            allow_cpu_ffn: true,
        }
    }
}

impl SearchSpace {
    /// A smaller grid for quick searches in tests and examples.
    pub fn coarse() -> Self {
        SearchSpace {
            micro_batch_sizes: vec![8, 16, 32, 64, 128],
            micro_batch_counts: vec![1, 2, 4, 8, 16, 32],
            weight_ratios: vec![0.0, 0.5, 1.0],
            kv_ratios: vec![0.0, 1.0],
            allow_gpu_attention: true,
            allow_cpu_ffn: false,
        }
    }

    /// The `(A_g, F_g, r_w, r_c)` cells tried for every `(μ, N/μ)`, grouped by
    /// their [`LaneClass`] `(A_g, F_g, r_c)`: one class per `r_c` position, each
    /// holding one cell per `r_w`, in `weight_ratios` order. A cell is a policy
    /// whose `N` and `μ` the search sets. `r_c` only matters when attention runs
    /// on the GPU; when it runs on the CPU the KV cache stays there (`r_c = 0`).
    /// The enumeration order runs `A_g`, `F_g`, `r_w`, `r_c` from outermost to
    /// innermost, so a class's cells sit one `r_c` block apart.
    fn placement_classes(&self) -> impl Iterator<Item = ClassCells> + '_ {
        let n_ffn = ffn_options(self.allow_cpu_ffn).count();
        let n_rw = self.weight_ratios.len();
        attention_options(self.allow_gpu_attention).flat_map(move |attention_on_gpu| {
            let kv_options = self.kv_options(attention_on_gpu);
            // The CPU-attention block, with its one `r_c`, comes first.
            let block = if attention_on_gpu { n_ffn * n_rw } else { 0 };
            ffn_options(self.allow_cpu_ffn)
                .enumerate()
                .flat_map(move |(ffn_pos, ffn_on_gpu)| {
                    let start = block + ffn_pos * n_rw * kv_options.len();
                    kv_options
                        .iter()
                        .enumerate()
                        .map(move |(kv_pos, &kv_gpu_ratio)| ClassCells {
                            class: LaneClass {
                                attention_on_gpu,
                                ffn_on_gpu,
                                kv_gpu_ratio,
                            },
                            kv_pos,
                            first: start + kv_pos,
                            stride: kv_options.len(),
                        })
                })
        })
    }

    /// The `r_c` values tried at placement `A_g`.
    fn kv_options(&self, attention_on_gpu: bool) -> &[f64] {
        if attention_on_gpu {
            &self.kv_ratios
        } else {
            &[0.0]
        }
    }
}

/// A lane class of the grid. Its `r_w` cells, in `weight_ratios` order, sit
/// at enumeration positions `first`, `first + stride`, `first + 2·stride`, ...
#[derive(Debug, Clone, Copy)]
struct ClassCells {
    class: LaneClass,
    /// The position of the class's `r_c` among the values tried at its `A_g`.
    kv_pos: usize,
    first: usize,
    stride: usize,
}

impl ClassCells {
    /// The class's cells at `weight_ratios`, each with its enumeration position.
    fn cells(self, weight_ratios: &[f64]) -> impl Iterator<Item = (usize, Policy)> + '_ {
        weight_ratios.iter().enumerate().map(move |(rw_pos, &rw)| {
            let cell = Policy {
                batch_size: 1,
                micro_batch_size: 1,
                attention_on_gpu: self.class.attention_on_gpu,
                ffn_on_gpu: self.class.ffn_on_gpu,
                weights_gpu_ratio: rw,
                kv_gpu_ratio: self.class.kv_gpu_ratio,
            };
            (self.first + rw_pos * self.stride, cell)
        })
    }
}

/// The result of a policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best policy found.
    pub policy: Policy,
    /// Modeled generation throughput (tokens/s) of the best policy.
    pub throughput: f64,
}

/// Errors produced by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerError {
    /// No candidate policy satisfied the memory constraints.
    NoFeasiblePolicy {
        /// Number of candidates in the search grid.
        candidates: usize,
    },
}

impl std::fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerError::NoFeasiblePolicy { candidates } => write!(
                f,
                "no feasible policy found among {candidates} candidates (model too large for this node?)"
            ),
        }
    }
}

impl std::error::Error for OptimizerError {}

/// The policy optimizer.
#[derive(Debug, Clone)]
pub struct PolicyOptimizer {
    cost: CostModel,
    capacity: CapacityModel,
    space: SearchSpace,
    /// The search's workload-independent terms, built by the first search
    /// and shared by clones made after it.
    tables: OnceLock<Arc<SearchTables>>,
}

impl PolicyOptimizer {
    /// Creates an optimizer with the default search space and the paper's
    /// generation-throughput objective.
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        PolicyOptimizer {
            cost: CostModel::new(node.clone(), model.clone()),
            capacity: CapacityModel::new(node, model),
            space: SearchSpace::default(),
            tables: OnceLock::new(),
        }
    }

    /// Overrides the search space. Tables an earlier search built for the
    /// old space are dropped; the next search builds them for this one.
    pub fn with_search_space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self.tables = OnceLock::new();
        self
    }

    /// The [`SearchTables`] of this optimizer's node, model and grid, built on
    /// first use.
    fn tables(&self) -> &SearchTables {
        self.tables
            .get_or_init(|| Arc::new(SearchTables::new(&self.space, &self.cost, &self.capacity)))
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Evaluates a single candidate (generation throughput, or `None` if invalid
    /// or infeasible).
    pub fn evaluate(&self, policy: &Policy, workload: &WorkloadShape) -> Option<f64> {
        if policy.validate().is_err() || !self.capacity.is_feasible(policy, workload) {
            return None;
        }
        Some(self.cost.generation_throughput(policy, workload))
    }

    /// Searches the policy space and returns the best feasible policy: the same
    /// policy and throughput as evaluating every grid cell in enumeration order
    /// and keeping the first maximum (see the module docs for how it skips work).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::NoFeasiblePolicy`] when nothing fits the node.
    pub fn search(&self, workload: &WorkloadShape) -> Result<SearchResult, OptimizerError> {
        self.search_counted(workload).0
    }

    /// [`Self::search`], also reporting how much of the grid it costed.
    fn search_counted(
        &self,
        workload: &WorkloadShape,
    ) -> (Result<SearchResult, OptimizerError>, SearchWork) {
        let space = &self.space;
        let tables = self.tables();
        let n_rw = space.weight_ratios.len();
        let n_classes = tables.classes.len();
        // The (A_g, F_g, r_w, r_c) cells of every (μ, N/μ).
        let n_cells = n_classes * n_rw;
        let n_counts = tables.counts.len();

        let mut work = SearchWork {
            rows: space.micro_batch_sizes.len() * n_cells,
            ..SearchWork::default()
        };
        // Every row counts as skipped until the memory cut drops it or a popped
        // class expands it.
        work.rows_skipped = work.rows;
        let floor = RowFloors::new(tables, &space.micro_batch_sizes, &self.capacity, workload);

        // Every micro-batch of batch μ·(N/μ) is full, so one record per μ serves
        // all of them, and one pass bounds every class of the μ from it. A μ
        // none of whose rows fits gets no record, and a (μ, class) none of
        // whose rows fits never enters the heap.
        let context = workload.avg_decode_context();
        let mut micro_batches = vec![None; space.micro_batch_sizes.len()];
        let mut queue = Vec::with_capacity(micro_batches.len() * n_classes);
        let mut kv_transfers = Vec::with_capacity(tables.gpu_kv_ratios.len());
        for (mu_pos, &mu) in space.micro_batch_sizes.iter().enumerate() {
            let fits = [false, true].map(|ffn_on_gpu| floor.any_fits(mu_pos, ffn_on_gpu));
            for cells in &tables.classes {
                if !fits[usize::from(cells.class.ffn_on_gpu)] {
                    work.rows_skipped -= n_rw;
                    work.rows_unfit += n_rw;
                }
            }
            if fits == [false, false] {
                continue;
            }
            let costs = self
                .cost
                .with_context(tables.micro_batches[mu_pos], mu, context);
            micro_batches[mu_pos] = Some(costs);
            let prefill = self.cost.prefill_flops_per_layer(mu, workload);
            let bound = self
                .cost
                .micro_batch_bound(mu, costs, prefill, workload.gen_len);
            let first = mu_pos * n_classes;
            tables.class_bounds(
                &self.cost,
                &bound,
                fits,
                &mut kv_transfers,
                |class_pos, bound| {
                    queue.push(Bounded {
                        // +∞ orders a NaN first and, like NaN, is never strictly
                        // below an incumbent, so it never prunes.
                        bound: if bound.is_nan() { f64::INFINITY } else { bound },
                        class: first + class_pos,
                    });
                },
            );
        }
        work.bounds = queue.len();
        let mut queue = BinaryHeap::from(queue);

        // Per-layer prefill FLOPs of each batch μ·(N/μ), computed on first use.
        let mut prefill_flops = vec![None; micro_batches.len() * n_counts];
        // (enumeration index, policy, throughput) of the best candidate so far.
        let mut best: Option<(usize, Policy, f64)> = None;
        while let Some(Bounded { bound, class }) = queue.pop() {
            // Strict: a class that could tie the incumbent might hold a lower
            // enumeration index, so it is costed. Every class left has a bound no
            // higher, so none of them can win either.
            if best.is_some_and(|(_, _, best_score)| bound < best_score) {
                break;
            }
            let (mu_pos, class_pos) = (class / n_classes, class % n_classes);
            let mu = space.micro_batch_sizes[mu_pos];
            let costs = micro_batches[mu_pos].expect("a queued μ has its costs");
            let cells = tables.classes[class_pos];
            let class = cells.class;
            let lanes = self.cost.lane_costs(class, costs, costs);
            work.rows_skipped -= n_rw;
            let rows = cells
                .cells(&space.weight_ratios)
                .zip(tables.rows(class.ffn_on_gpu))
                .zip(floor.fits(mu_pos, class.ffn_on_gpu));
            for (((cell_pos, cell), terms), &fits) in rows {
                if !fits {
                    work.rows_unfit += 1;
                    continue;
                }
                let row_policy = Policy {
                    batch_size: mu,
                    micro_batch_size: mu,
                    ..cell
                };
                let row = RowCosts {
                    lanes,
                    weights: terms.streams,
                };
                let capacity = self.capacity.row_from(
                    &row_policy,
                    terms.memory,
                    floor.activations[mu_pos],
                    workload,
                );
                for &(count_pos, n_ub) in &tables.counts {
                    let policy = Policy {
                        batch_size: mu * n_ub,
                        ..row_policy
                    };
                    let req = capacity.at(policy.batch_size);
                    if self.capacity.exceeds_batch_floor(&req) {
                        break;
                    }
                    if policy.validate().is_err() || !self.capacity.fits(&req) {
                        continue;
                    }
                    work.scored += 1;
                    let score = self.cost.generation_throughput_from(
                        &policy,
                        workload,
                        &row,
                        *prefill_flops[mu_pos * n_counts + count_pos].get_or_insert_with(|| {
                            self.cost
                                .prefill_flops_per_layer(policy.batch_size, workload)
                        }),
                    );
                    let index = (mu_pos * n_counts + count_pos) * n_cells + cell_pos;
                    let better = best.as_ref().is_none_or(|&(best_index, _, best_score)| {
                        score > best_score || (score == best_score && index < best_index)
                    });
                    if better {
                        best = Some((index, policy, score));
                    }
                }
            }
        }
        let result = match best {
            Some((_, policy, throughput)) => Ok(SearchResult { policy, throughput }),
            None => Err(OptimizerError::NoFeasiblePolicy {
                candidates: space.micro_batch_sizes.len() * n_counts * n_cells,
            }),
        };
        (result, work)
    }
}

/// What a search reads that depends on the node, the model and the grid but
/// never on the workload, so each optimizer builds it once, as MILP presolve
/// does its work once before any branching.
///
/// An optimizer builds its tables on its first search, not in
/// [`PolicyOptimizer::new`]: many evaluators are built and never search, or
/// search once for the one policy a serving replica runs, and building there
/// would charge every such set-up for terms it may never read. Clones made
/// after the build share the tables, so a fleet that clones one evaluator
/// per replica holds them once per node.
#[derive(Debug)]
struct SearchTables {
    /// The placement classes, in enumeration order.
    classes: Vec<ClassCells>,
    /// The `r_c` values the GPU-attention classes read, in grid order; empty
    /// when the grid has no GPU attention.
    gpu_kv_ratios: Vec<f64>,
    /// The micro-batch counts in ascending value order, each with its grid
    /// position.
    counts: Vec<(usize, u64)>,
    /// The terms of every `(F_g, r_w)` row, indexed `[F_g][r_w]` by grid
    /// position.
    rows: Vec<RowTerms>,
    /// Each μ's context-free task durations, by grid position.
    micro_batches: Vec<ContextFreeCosts>,
}

/// The terms of one `(F_g, r_w)` row that neither `μ`, `A_g`, `r_c`, the batch
/// nor the workload moves.
#[derive(Debug, Clone, Copy)]
struct RowTerms {
    memory: RowWeights,
    streams: WeightStreams,
}

impl SearchTables {
    fn new(space: &SearchSpace, cost: &CostModel, capacity: &CapacityModel) -> Self {
        let mut counts: Vec<(usize, u64)> = space
            .micro_batch_counts
            .iter()
            .copied()
            .enumerate()
            .collect();
        counts.sort_by_key(|&(_, n_ub)| n_ub);
        let rows = [false, true]
            .into_iter()
            .flat_map(|ffn_on_gpu| {
                space.weight_ratios.iter().map(move |&rw| {
                    let streamed = Policy {
                        ffn_on_gpu,
                        weights_gpu_ratio: rw,
                        ..Policy::offload_default(1, 1)
                    };
                    RowTerms {
                        memory: capacity.row_weights(ffn_on_gpu, rw),
                        streams: cost.weight_streams(&streamed),
                    }
                })
            })
            .collect();
        SearchTables {
            classes: space.placement_classes().collect(),
            gpu_kv_ratios: if space.allow_gpu_attention {
                space.kv_ratios.clone()
            } else {
                Vec::new()
            },
            counts,
            rows,
            micro_batches: space
                .micro_batch_sizes
                .iter()
                .map(|&mu| cost.context_free_costs(mu))
                .collect(),
        }
    }

    /// The terms of the `r_w` rows at `F_g`, in `weight_ratios` order.
    fn rows(&self, ffn_on_gpu: bool) -> &[RowTerms] {
        let n_rw = self.rows.len() / 2;
        let start = usize::from(ffn_on_gpu) * n_rw;
        &self.rows[start..start + n_rw]
    }

    /// The throughput bound ([`CostModel::class_bound`]) of every class of the
    /// bounded micro-batch size whose `F_g` has a row that fits
    /// (`fits[F_g]`), passed to `emit` with the class's position, in
    /// enumeration order. One pass: the prefill term is in `bound` already,
    /// and the KV transfer is priced once per `r_c` into `kv_transfers`,
    /// not once per class.
    fn class_bounds(
        &self,
        cost: &CostModel,
        bound: &MicroBatchBound,
        fits: [bool; 2],
        kv_transfers: &mut Vec<Seconds>,
        mut emit: impl FnMut(usize, f64),
    ) {
        kv_transfers.clear();
        kv_transfers.extend(
            self.gpu_kv_ratios
                .iter()
                .map(|&rc| cost.bound_kv_transfer(bound, rc)),
        );
        for (class_pos, cells) in self.classes.iter().enumerate() {
            let class = cells.class;
            if !fits[usize::from(class.ffn_on_gpu)] {
                continue;
            }
            let kv_transfer = if class.attention_on_gpu {
                kv_transfers[cells.kv_pos]
            } else {
                Seconds::ZERO
            };
            emit(class_pos, cost.class_bound(bound, class, kv_transfer));
        }
    }
}

/// Whether the batch-independent memory floor of each `(μ, F_g, r_w)` row of
/// the grid fits the node ([`CapacityModel::floor_fits`]). A row whose floor
/// does not fit has no micro-batch count, `A_g` or `r_c` that fits.
struct RowFloors {
    /// Each μ's activation workspace, by grid position.
    activations: Vec<ByteSize>,
    /// Indexed `[μ][F_g][r_w]` by grid position.
    fits: Vec<bool>,
    weight_ratios: usize,
}

impl RowFloors {
    /// Checks every row: the tables' weight terms of each `(F_g, r_w)`
    /// against the activation workspace of each `μ`.
    fn new(
        tables: &SearchTables,
        micro_batch_sizes: &[u64],
        capacity: &CapacityModel,
        workload: &WorkloadShape,
    ) -> Self {
        let activations: Vec<_> = micro_batch_sizes
            .iter()
            .map(|&mu| capacity.activations(mu, workload))
            .collect();
        let fits = activations
            .iter()
            .flat_map(|&activations| {
                tables.rows.iter().map(move |row| {
                    let m = row.memory;
                    capacity.floor_fits(
                        m.gpu_static_weights,
                        m.gpu_weight_buffer,
                        activations,
                        m.cpu_weights,
                    )
                })
            })
            .collect();
        RowFloors {
            activations,
            fits,
            weight_ratios: tables.rows.len() / 2,
        }
    }

    /// The verdicts of the `r_w` rows of `(μ, F_g)`, in `weight_ratios` order.
    fn fits(&self, mu_pos: usize, ffn_on_gpu: bool) -> &[bool] {
        let start = (mu_pos * 2 + usize::from(ffn_on_gpu)) * self.weight_ratios;
        &self.fits[start..start + self.weight_ratios]
    }

    /// Whether any `r_w` row of `(μ, F_g)` fits.
    fn any_fits(&self, mu_pos: usize, ffn_on_gpu: bool) -> bool {
        self.fits(mu_pos, ffn_on_gpu).contains(&true)
    }
}

/// A `(μ, lane class)` entry of the best-first search, ordered by its
/// throughput bound, which is never NaN. Equal bounds pop in no particular
/// order: the winner rule, not the visiting order, settles ties.
#[derive(Debug, Clone, Copy)]
struct Bounded {
    bound: f64,
    /// `μ`'s grid position times the number of classes, plus the class's
    /// position in [`SearchTables::classes`].
    class: usize,
}

impl Ord for Bounded {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound.total_cmp(&other.bound)
    }
}

impl PartialOrd for Bounded {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Bounded {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Bounded {}

/// How much of the grid one [`PolicyOptimizer::search`] costed.
#[derive(Debug, Default, PartialEq)]
struct SearchWork {
    /// `(μ, A_g, F_g, r_w, r_c)` rows in the grid.
    rows: usize,
    /// Rows never costed because their class's throughput bound fell below the
    /// incumbent.
    rows_skipped: usize,
    /// Rows of the classes the bound did not skip that were never costed
    /// because their batch-independent memory floor exceeds the node, counting
    /// every row of a `(μ, class)` that never entered the heap. The rows costed
    /// are `rows - rows_skipped - rows_unfit`.
    rows_unfit: usize,
    /// `(μ, A_g, F_g, r_c)` class bounds computed.
    bounds: usize,
    /// Candidates scored.
    scored: usize,
}

impl crate::generator::PolicyGenerator for PolicyOptimizer {
    fn name(&self) -> &'static str {
        "hrm"
    }

    /// Runs the full [`PolicyOptimizer::search`]: `None` when no feasible policy
    /// exists.
    fn generate(&self, workload: &WorkloadShape) -> Option<Policy> {
        self.search(workload).ok().map(|r| r.policy)
    }
}

/// The `A_g` values tried: CPU attention, then GPU attention if allowed.
fn attention_options(allow_gpu: bool) -> impl Iterator<Item = bool> {
    [false, true].into_iter().take(1 + usize::from(allow_gpu))
}

/// The `F_g` values tried: GPU FFN, then CPU FFN if allowed.
fn ffn_options(allow_cpu: bool) -> impl Iterator<Item = bool> {
    [true, false].into_iter().take(1 + usize::from(allow_cpu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mtbench(gen: u64) -> WorkloadShape {
        WorkloadShape::new(77, gen)
    }

    /// The reference search: score every grid cell in enumeration order and keep
    /// the first maximum.
    fn exhaustive_search(
        opt: &PolicyOptimizer,
        workload: &WorkloadShape,
    ) -> Result<SearchResult, OptimizerError> {
        let space = &opt.space;
        let mut best: Option<(Policy, f64)> = None;
        let mut candidates = 0usize;
        for &mu in &space.micro_batch_sizes {
            for &n_ub in &space.micro_batch_counts {
                for attention_on_gpu in attention_options(space.allow_gpu_attention) {
                    for ffn_on_gpu in ffn_options(space.allow_cpu_ffn) {
                        for &rw in &space.weight_ratios {
                            let kv_options: &[f64] = if attention_on_gpu {
                                &space.kv_ratios
                            } else {
                                &[0.0]
                            };
                            for &rc in kv_options {
                                candidates += 1;
                                let policy = Policy {
                                    batch_size: mu * n_ub,
                                    micro_batch_size: mu,
                                    attention_on_gpu,
                                    ffn_on_gpu,
                                    weights_gpu_ratio: rw,
                                    kv_gpu_ratio: rc,
                                };
                                if let Some(score) = opt.evaluate(&policy, workload) {
                                    if best.as_ref().is_none_or(|&(_, b)| score > b) {
                                        best = Some((policy, score));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        match best {
            Some((policy, throughput)) => Ok(SearchResult { policy, throughput }),
            None => Err(OptimizerError::NoFeasiblePolicy { candidates }),
        }
    }

    /// Asserts that the pruned search returns exactly what the exhaustive one does.
    fn assert_matches_exhaustive(opt: &PolicyOptimizer, workload: &WorkloadShape) {
        match (opt.search(workload), exhaustive_search(opt, workload)) {
            (Ok(pruned), Ok(reference)) => {
                assert_eq!(pruned.policy, reference.policy, "workload {workload:?}");
                assert_eq!(
                    pruned.throughput.to_bits(),
                    reference.throughput.to_bits(),
                    "policy {}",
                    pruned.policy
                );
            }
            (pruned, reference) => assert_eq!(pruned, reference, "workload {workload:?}"),
        }
    }

    fn model_preset(index: usize) -> MoeModelConfig {
        match index {
            0 => MoeModelConfig::mixtral_8x7b(),
            1 => MoeModelConfig::mixtral_8x22b(),
            2 => MoeModelConfig::dbrx(),
            _ => MoeModelConfig::tiny(),
        }
    }

    /// A T4, an L4, a 2–4×T4 or the §6.3 2×A100 node whose host DRAM is
    /// `cpu_factor` times the model's weight bytes. On the A100 node the search
    /// picks GPU attention with part of the KV cache in HBM, which exercises the
    /// bound's GPU-attention and KV-transfer terms.
    fn node_preset(index: usize, model: &MoeModelConfig, cpu_factor: f64) -> NodeSpec {
        let node = match index {
            0 => NodeSpec::t4_single(),
            1 => NodeSpec::l4_single(),
            5 => NodeSpec::a100_case_study(300.0, 4.0),
            n => NodeSpec::t4_multi(n as u32),
        };
        node.with_cpu_memory(model.total_weight_bytes().scale(cpu_factor))
    }

    /// Host DRAM as a multiple of the model's weight bytes, in 0.9–3. Half the
    /// draws land in 0.99–1.05, where the shrinking staging pages decide whether a
    /// row's small batches fit.
    fn cpu_memory_factor() -> impl Strategy<Value = f64> {
        (any::<bool>(), 0.0f64..1.0)
            .prop_map(|(near, u)| if near { 0.99 + 0.06 * u } else { 0.9 + 2.1 * u })
    }

    /// Half the prompts are chat-length (MTBench averages 77 tokens), half up to
    /// HELM's 1,693. Generation lengths span 0–511, and one draw in eight is 0,
    /// where every candidate scores 0 and only the enumeration order breaks the tie.
    fn workload() -> impl Strategy<Value = WorkloadShape> {
        (any::<bool>(), 1u64..2048, 0u32..8, 0u64..512).prop_map(|(chat, prompt, k, gen)| {
            let prompt = if chat { 1 + prompt % 256 } else { prompt };
            WorkloadShape::new(prompt, if k == 0 { 0 } else { gen })
        })
    }

    fn ratio() -> impl Strategy<Value = f64> {
        (0u32..=20).prop_map(|k| f64::from(k) / 20.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pruned_search_matches_exhaustive_on_random_sub_grids(
            (model_index, node_index, cpu_factor) in (0usize..4, 0usize..6, cpu_memory_factor()),
            workload in workload(),
            micro_batch_sizes in collection::vec(1u64..=256, 1..6),
            micro_batch_counts in collection::vec(0u64..=160, 1..9),
            (weight_ratios, kv_ratios) in (collection::vec(ratio(), 1..5), collection::vec(ratio(), 1..4)),
            (allow_gpu_attention, allow_cpu_ffn) in (any::<bool>(), any::<bool>()),
        ) {
            let model = model_preset(model_index);
            let node = node_preset(node_index, &model, cpu_factor);
            let opt = PolicyOptimizer::new(node, model).with_search_space(SearchSpace {
                micro_batch_sizes,
                micro_batch_counts,
                weight_ratios,
                kv_ratios,
                allow_gpu_attention,
                allow_cpu_ffn,
            });
            assert_matches_exhaustive(&opt, &workload);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pruned_search_matches_exhaustive_on_the_default_grid(
            (model_index, node_index, cpu_factor) in (0usize..4, 0usize..6, cpu_memory_factor()),
            workload in workload(),
        ) {
            let model = model_preset(model_index);
            let opt = PolicyOptimizer::new(node_preset(node_index, &model, cpu_factor), model);
            assert_matches_exhaustive(&opt, &workload);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every term the tables hoist and every bound of the one-pass class
        /// bounding equals its per-call reference, bit for bit, on every
        /// model preset, a T4, an L4 and a 4×T4 node, random micro-batch
        /// sizes, contexts, prompts, generation lengths and `r_c`.
        #[test]
        fn hoisted_tables_and_one_pass_bounds_equal_the_per_call_reference(
            (model_index, node_index) in (0usize..4, 0usize..3),
            micro_batch_sizes in collection::vec(1u64..1024, 1..4),
            (context_len, prompt, gen_len) in (0u64..8192, 1u64..2048, 0u64..512),
            (weight_ratios, kv_ratios) in (
                collection::vec(ratio(), 1..4),
                collection::vec(0.0f64..=1.0, 1..4),
            ),
            (allow_gpu_attention, allow_cpu_ffn) in (any::<bool>(), any::<bool>()),
        ) {
            let model = model_preset(model_index);
            let node = [NodeSpec::t4_single(), NodeSpec::l4_single(), NodeSpec::t4_multi(4)]
                [node_index]
                .clone();
            let opt = PolicyOptimizer::new(node, model).with_search_space(SearchSpace {
                micro_batch_sizes,
                micro_batch_counts: vec![1],
                weight_ratios,
                kv_ratios,
                allow_gpu_attention,
                allow_cpu_ffn,
            });
            let (cost, capacity, space, tables) = (&opt.cost, &opt.capacity, &opt.space, opt.tables());
            let workload = WorkloadShape::new(prompt, gen_len);
            let floor = RowFloors::new(tables, &space.micro_batch_sizes, capacity, &workload);
            for (mu_pos, &mu) in space.micro_batch_sizes.iter().enumerate() {
                // Context-free terms + context terms == the per-call record.
                let costs = cost.with_context(tables.micro_batches[mu_pos], mu, context_len);
                let reference = cost.micro_batch_costs(mu, context_len);
                prop_assert_eq!(costs.bits(), reference.bits(), "μ = {}", mu);

                // One-pass class bounds == the per-class reference.
                let prefill = cost.prefill_flops_per_layer(mu, &workload);
                let bound = cost.micro_batch_bound(mu, costs, prefill, gen_len);
                let mut bounds = Vec::new();
                tables.class_bounds(cost, &bound, [true, true], &mut Vec::new(), |pos, b| {
                    bounds.push((pos, b));
                });
                prop_assert_eq!(bounds.len(), tables.classes.len());
                for (class_pos, one_pass) in bounds {
                    let class = tables.classes[class_pos].class;
                    let reference =
                        cost.class_throughput_bound(mu, class, reference, prefill, gen_len);
                    prop_assert_eq!(one_pass.to_bits(), reference.to_bits(), "{:?}", class);
                }

                // Hoisted row terms == the per-call row requirement and streams.
                for cells in &tables.classes {
                    let class = cells.class;
                    let rows = cells
                        .cells(&space.weight_ratios)
                        .zip(tables.rows(class.ffn_on_gpu))
                        .zip(floor.fits(mu_pos, class.ffn_on_gpu));
                    for (((_, cell), terms), &fits) in rows {
                        let policy = Policy { batch_size: mu, micro_batch_size: mu, ..cell };
                        let hoisted = capacity.row_from(
                            &policy,
                            terms.memory,
                            floor.activations[mu_pos],
                            &workload,
                        );
                        let reference = capacity.row(&policy, &workload);
                        for n_ub in [1, 2, 7, 64] {
                            prop_assert_eq!(hoisted.at(mu * n_ub), reference.at(mu * n_ub));
                        }
                        let req = reference.at(mu);
                        prop_assert_eq!(
                            fits,
                            req.gpu_static_weights + req.gpu_weight_buffer + req.gpu_activations
                                <= capacity.node().total_gpu_memory()
                                && req.cpu_weights <= capacity.node().cpu_memory()
                        );
                        prop_assert_eq!(terms.streams.bits(), cost.weight_streams(&policy).bits());
                    }
                }
            }
        }
    }

    /// Asserts that two searches return the same policy and throughput, bit
    /// for bit, after the same work.
    fn assert_same_search(a: &PolicyOptimizer, b: &PolicyOptimizer, workload: &WorkloadShape) {
        let ((a, a_work), (b, b_work)) = (a.search_counted(workload), b.search_counted(workload));
        assert_eq!(a_work, b_work, "{workload:?}");
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.policy, b.policy, "{workload:?}");
                assert_eq!(
                    a.throughput.to_bits(),
                    b.throughput.to_bits(),
                    "{workload:?}"
                );
            }
            (a, b) => assert_eq!(a, b, "{workload:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The tables live as long as the search space: `with_search_space`
        /// drops them, so a coarse optimizer made from one that has searched
        /// searches like a fresh one. Clones taken before and after the first
        /// search search alike.
        #[test]
        fn tables_reset_with_the_search_space_and_survive_clones(
            (model_index, node_index, cpu_factor) in (0usize..4, 0usize..6, cpu_memory_factor()),
            workloads in collection::vec(workload(), 1..4),
        ) {
            let model = model_preset(model_index);
            let node = node_preset(node_index, &model, cpu_factor);
            let opt = PolicyOptimizer::new(node.clone(), model.clone());
            let before = opt.clone();
            opt.search(&workloads[0]).ok();
            prop_assert!(opt.tables.get().is_some() && before.tables.get().is_none());
            let after = opt.clone();
            for workload in &workloads {
                assert_same_search(&before, &opt, workload);
                assert_same_search(&after, &opt, workload);
            }

            let coarse = opt.with_search_space(SearchSpace::coarse());
            prop_assert!(coarse.tables.get().is_none());
            let fresh = PolicyOptimizer::new(node, model).with_search_space(SearchSpace::coarse());
            for workload in &workloads {
                assert_same_search(&coarse, &fresh, workload);
                assert_matches_exhaustive(&coarse, workload);
            }
        }
    }

    #[test]
    fn s1_search_prefers_cpu_attention_and_gpu_ffn() {
        // §4.2: "for our major setting, we always get A_g = 0 and F_g = 1".
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let result = opt.search(&mtbench(128)).expect("a feasible policy exists");
        assert!(
            !result.policy.attention_on_gpu,
            "best policy: {}",
            result.policy
        );
        assert!(result.policy.ffn_on_gpu, "best policy: {}", result.policy);
        assert!(
            result.policy.num_micro_batches() > 1,
            "pipelining requires several micro-batches"
        );
        assert!(result.throughput > 0.0);
    }

    #[test]
    fn search_fails_gracefully_when_model_cannot_fit() {
        let node = NodeSpec::t4_single().with_cpu_memory(moe_hardware::ByteSize::from_gib(4.0));
        let opt = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
        let err = opt.search(&mtbench(32)).unwrap_err();
        // The count is the full grid's, although the row cut costs none of it.
        assert_eq!(
            err,
            OptimizerError::NoFeasiblePolicy {
                candidates: 17 * 17 * 96
            }
        );
        assert_eq!(Err(err.clone()), exhaustive_search(&opt, &mtbench(32)));
        assert!(err.to_string().contains("no feasible policy"));
        // No row's host weights fit, so the memory cut drops every row before
        // a bound is computed.
        let work = opt.search_counted(&mtbench(32)).1;
        assert_eq!(work.bounds, 0, "{work:?}");
        assert_eq!(work.rows_unfit, work.rows, "{work:?}");
        assert_eq!(work.scored, 0, "{work:?}");
    }

    /// [`PolicyOptimizer::search_counted`]'s work, after asserting that the
    /// search returns what the exhaustive one does.
    fn work_matching_exhaustive(opt: &PolicyOptimizer, workload: &WorkloadShape) -> SearchWork {
        assert_matches_exhaustive(opt, workload);
        opt.search_counted(workload).1
    }

    #[test]
    fn the_bound_skips_three_quarters_of_the_s1_mtbench_rows() {
        // S1 (Mixtral 8x7B on a T4), MTBench, default grid: 17 micro-batch
        // sizes × 96 placements. The counts are deterministic, and without the
        // bound no row is skipped.
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let work = work_matching_exhaustive(&opt, &mtbench(128));
        assert_eq!(work.rows, 17 * 96);
        assert!(4 * work.rows_skipped >= 3 * work.rows, "{work:?}");
        assert!(work.scored < 17 * 17 * 96 / 20, "{work:?}");
    }

    #[test]
    fn best_first_order_costs_one_class_on_s1_mtbench() {
        // One bound per (μ, A_g, F_g, r_c) class, 17 × 12 on the default grid,
        // never one per r_w row. The best class is popped first, and its 8 r_w
        // rows leave every other class's bound below the incumbent.
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let work = work_matching_exhaustive(&opt, &mtbench(128));
        assert_eq!(work.bounds, 17 * 12, "{work:?}");
        assert!(work.rows - work.rows_skipped <= 8, "{work:?}");
        assert!(work.scored <= 20, "{work:?}");
    }

    #[test]
    fn the_memory_cut_costs_two_of_the_eight_s1_mtbench_rows() {
        // The popped class's r_w ≥ 0.2 rows overflow the T4 with their static
        // weights alone, so only r_w ∈ {0, 0.1} are costed. Without the cut
        // all 8 rows are.
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let work = work_matching_exhaustive(&opt, &mtbench(128));
        assert_eq!(work.bounds, 17 * 12, "{work:?}");
        assert_eq!(work.rows_unfit, 6, "{work:?}");
        assert_eq!(
            work.rows - work.rows_skipped - work.rows_unfit,
            2,
            "{work:?}"
        );
        assert_eq!(work.scored, 20, "{work:?}");
    }

    #[test]
    fn the_memory_cut_drops_whole_classes_on_padded_t4_prompts() {
        // Prompts padded to 1,984 tokens: for the large μ the prefill workspace
        // plus even the smallest weight buffer overflows the T4, so those
        // (μ, class) pairs get no bound. Without the cut the search computes
        // all 204 bounds and costs 440 rows.
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let work = work_matching_exhaustive(&opt, &WorkloadShape::new(1984, 64));
        assert_eq!(work.bounds, 138, "{work:?}");
        assert!(
            work.rows - work.rows_skipped - work.rows_unfit <= 20,
            "{work:?}"
        );
    }

    /// The first policy of the `(μ, F_g, r_w)` row with a grid count, `A_g`
    /// and `r_c` that fits, if any.
    fn fitting_policy_of_row(
        capacity: &CapacityModel,
        space: &SearchSpace,
        workload: &WorkloadShape,
        (mu, ffn_on_gpu, rw): (u64, bool, f64),
    ) -> Option<Policy> {
        let mut policies = space.micro_batch_counts.iter().flat_map(|&n_ub| {
            [false, true].into_iter().flat_map(move |attention_on_gpu| {
                space.kv_ratios.iter().map(move |&rc| Policy {
                    batch_size: mu * n_ub,
                    micro_batch_size: mu,
                    attention_on_gpu,
                    ffn_on_gpu,
                    weights_gpu_ratio: rw,
                    kv_gpu_ratio: rc,
                })
            })
        });
        policies.find(|policy| capacity.is_feasible(policy, workload))
    }

    #[test]
    fn the_memory_cut_drops_only_rows_nothing_fits() {
        // Every (μ, F_g, r_w) the cut drops has no count, A_g or r_c that
        // fits, on every preset near and well above the model's weight size.
        let space = SearchSpace::default();
        let mut dropped = 0;
        for model_index in 0..4 {
            let model = model_preset(model_index);
            for (node_index, cpu_factor) in (0..6).flat_map(|n| [(n, 0.95), (n, 2.0)]) {
                let node = node_preset(node_index, &model, cpu_factor);
                let opt = PolicyOptimizer::new(node, model.clone());
                let capacity = &opt.capacity;
                for workload in [mtbench(128), WorkloadShape::new(1984, 64)] {
                    let floor =
                        RowFloors::new(opt.tables(), &space.micro_batch_sizes, capacity, &workload);
                    for (mu_pos, &mu) in space.micro_batch_sizes.iter().enumerate() {
                        for ffn_on_gpu in [false, true] {
                            let rows = space
                                .weight_ratios
                                .iter()
                                .zip(floor.fits(mu_pos, ffn_on_gpu));
                            for (&rw, _) in rows.filter(|&(_, &fits)| !fits) {
                                dropped += 1;
                                let row = (mu, ffn_on_gpu, rw);
                                assert_eq!(
                                    fitting_policy_of_row(capacity, &space, &workload, row),
                                    None,
                                    "model {model_index}, node {node_index} at {cpu_factor}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(dropped > 0, "the cut never fired");
    }

    #[test]
    fn visiting_order_never_changes_the_winner() {
        // Duplicate, unsorted grid values give equal bounds and equal scores at
        // different enumeration indices. The heap pops equal bounds in no
        // particular order, and the tie must still go to the lowest index.
        let space = SearchSpace {
            micro_batch_sizes: vec![64, 16, 64],
            weight_ratios: vec![0.5, 0.0, 0.5],
            kv_ratios: vec![1.0, 0.25, 1.0],
            ..SearchSpace::default()
        };
        for node in [NodeSpec::t4_single(), NodeSpec::a100_case_study(300.0, 4.0)] {
            let opt = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b())
                .with_search_space(space.clone());
            for gen in [0, 128] {
                assert_matches_exhaustive(&opt, &mtbench(gen));
            }
        }
    }

    #[test]
    fn zero_generation_ties_every_candidate_and_skips_no_row() {
        // Every score is 0 and every bound is 0 or NaN, neither strictly below
        // the incumbent, so every row is costed and the lowest index wins.
        for node in [NodeSpec::t4_single(), NodeSpec::a100_case_study(300.0, 4.0)] {
            let opt = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
            let workload = mtbench(0);
            let work = work_matching_exhaustive(&opt, &workload);
            assert_eq!(work.rows_skipped, 0, "{work:?}");
            assert_eq!(opt.search(&workload).unwrap().throughput, 0.0);
        }
    }

    #[test]
    fn zero_micro_batch_counts_are_never_scored() {
        // A count of 0 is a batch of 0, below every μ: invalid, so never scored.
        let model = MoeModelConfig::mixtral_8x7b();
        let space = SearchSpace {
            micro_batch_sizes: vec![256, 1, 8],
            micro_batch_counts: vec![0, 3, 0, 1],
            ..SearchSpace::default()
        };
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), model.clone())
            .with_search_space(space.clone());
        for workload in [mtbench(128), mtbench(0), WorkloadShape::new(1693, 32)] {
            work_matching_exhaustive(&opt, &workload);
        }

        let zeros = SearchSpace {
            micro_batch_counts: vec![0, 0],
            ..space
        };
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), model).with_search_space(zeros);
        assert_eq!(
            opt.search(&mtbench(128)),
            Err(OptimizerError::NoFeasiblePolicy {
                candidates: 3 * 2 * 96
            })
        );
        assert_matches_exhaustive(&opt, &mtbench(128));
    }

    #[test]
    fn infinite_times_never_prune_a_feasible_row() {
        let mut no_link = NodeSpec::t4_single();
        no_link.link.h2d_bandwidth = moe_hardware::Bandwidth::ZERO;
        no_link.link.d2h_bandwidth = moe_hardware::Bandwidth::ZERO;
        let mut no_gpu_flops = NodeSpec::t4_single();
        no_gpu_flops.gpu.peak_flops_f16 = moe_hardware::ComputeRate::ZERO;
        let mut no_cpu_flops = NodeSpec::t4_single();
        no_cpu_flops.cpu.peak_flops = moe_hardware::ComputeRate::ZERO;
        let workloads = [mtbench(128), mtbench(0), WorkloadShape::new(1693, 32)];

        // Every candidate takes forever and scores 0: nothing may be skipped.
        for node in [no_link, no_gpu_flops] {
            let opt = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
            for workload in &workloads {
                let work = work_matching_exhaustive(&opt, workload);
                assert_eq!(work.rows_skipped, 0, "{workload:?}: {work:?}");
                assert_eq!(opt.search(workload).unwrap().throughput, 0.0);
            }
        }
        // Only the CPU-attention and CPU-FFN rows take forever; they may be
        // skipped, the GPU rows may not.
        let opt = PolicyOptimizer::new(no_cpu_flops, MoeModelConfig::mixtral_8x7b());
        for workload in &workloads {
            work_matching_exhaustive(&opt, workload);
        }
        let best = opt.search(&mtbench(128)).unwrap();
        assert!(best.policy.attention_on_gpu && best.policy.ffn_on_gpu);
        assert!(best.throughput > 0.0);
    }

    #[test]
    fn more_cpu_memory_never_hurts_throughput() {
        // Fig. 1: larger CPU memory allows bigger batches and therefore at least as
        // much throughput.
        let small_node =
            NodeSpec::t4_single().with_cpu_memory(moe_hardware::ByteSize::from_gib(96.0));
        let big_node = NodeSpec::t4_single();
        let w = mtbench(128);
        let space = SearchSpace::coarse();
        let small = PolicyOptimizer::new(small_node, MoeModelConfig::mixtral_8x7b())
            .with_search_space(space.clone())
            .search(&w)
            .unwrap();
        let big = PolicyOptimizer::new(big_node, MoeModelConfig::mixtral_8x7b())
            .with_search_space(space)
            .search(&w)
            .unwrap();
        assert!(big.throughput >= small.throughput * 0.999);
    }

    #[test]
    fn ample_gpu_memory_is_exploited_on_a100_nodes() {
        // §6.3: with 2xA100-80G the optimizer should use the abundant HBM — either by
        // pinning weights statically (`r_w > 0`) or by keeping (part of) the KV cache
        // on the GPU — and must beat the naive everything-offloaded policy.
        let node = NodeSpec::a100_case_study(300.0, 4.0);
        let opt = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
        let w = WorkloadShape::new(512, 32);
        let result = opt.search(&w).unwrap();
        let uses_gpu_memory = result.policy.weights_gpu_ratio > 0.0
            || result.policy.kv_gpu_ratio > 0.0
            || result.policy.attention_on_gpu;
        assert!(
            uses_gpu_memory,
            "expected HBM to be exploited, got {}",
            result.policy
        );
        let naive = opt
            .evaluate(&Policy::offload_default(256, 32), &w)
            .expect("naive policy is feasible on A100s");
        assert!(
            result.throughput >= naive,
            "optimizer must not lose to the naive policy"
        );
    }

    #[test]
    fn evaluate_rejects_invalid_and_oversized_policies() {
        let opt = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        let w = mtbench(64);
        let mut invalid = Policy::offload_default(32, 32);
        invalid.weights_gpu_ratio = 2.0;
        assert_eq!(opt.evaluate(&invalid, &w), None);
        let mut oversized = Policy::offload_default(32, 32);
        oversized.weights_gpu_ratio = 1.0;
        assert_eq!(opt.evaluate(&oversized, &w), None);
        assert!(opt
            .evaluate(&Policy::offload_default(128, 32), &w)
            .is_some());
    }

    #[test]
    fn search_result_policy_is_always_feasible_and_valid() {
        let opt = PolicyOptimizer::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b())
            .with_search_space(SearchSpace::coarse());
        let capacity = CapacityModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
        for gen in [32, 128, 256] {
            let w = mtbench(gen);
            let r = opt.search(&w).unwrap();
            assert!(r.policy.validate().is_ok());
            assert!(capacity.is_feasible(&r.policy, &w));
        }
    }
}
