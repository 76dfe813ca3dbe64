(** Feedback-guided differential fuzzer (ROADMAP item 4).

    An evolutionary loop over (data-state mutation, stats-fault profile,
    query) genomes, each executed through every differential pass the repo
    has: four estimators vs the exact oracle, cached-vs-cold optimization,
    streaming-vs-materialized execution, evidence-kernel-vs-row-scan, a
    degrading-estimator pass over deliberately faulted statistics with
    guard-driven re-optimization and span/meter reconciliation, and a
    rewritten-vs-unrewritten plan pass over the logical rewrite layer.

    Coverage is the (structural plan fingerprint x degradation-tier
    transition digest) pair; a mutant joins the corpus only if its pair is
    unseen, and the mutator escalates query -> stats-fault -> data-state
    when the search stagnates (Query Plan Guidance).  Divergences are
    delta-debugged to a minimal case and serialized as a replayable
    [.fuzz-repro] file. *)

open Rq_optimizer
open Rq_workload

(** {2 Genome} *)

type workload = Tpch | Star

type cmp = C_le | C_lt | C_gt | C_ge | C_eq

type literal = L_int of int | L_float of float | L_date of int  (** days since epoch *)

type atom = { column : string; cmp : cmp; value : literal }

type table_gene = { table : string; atoms : atom list }

type shape = Total | Grouped | Projected

type query_gene = {
  genes : table_gene list;
  shape : shape;
  semis : table_gene list;     (** IN-subquery (semijoin) genes over FK edges *)
  order : bool;                (** emit an ORDER BY clause *)
  descending : bool;
  limit : int option;          (** only honoured where results are deterministic *)
}
(** [genes] is never empty; its head is the workload's root table.  [semis]
    name tables that must not also appear in [genes] — the compiler drops
    any that do. *)

type case = {
  workload : workload;
  catalog_seed : int;
  mutations : Mutate.t list;          (** applied to the catalog, in order *)
  faults : Rq_stats.Fault.injection list;  (** applied to the statistics *)
  query : query_gene;
  pool_pages : int option;
      (** buffer-pool-capacity gene: global pool capped at this many pages
          (restored afterwards) while the case's passes run — eviction
          pressure must never change an answer.  Emitted to JSON only when
          set, so older corpora round-trip. *)
}

val workload_to_string : workload -> string
val case_to_json : case -> Rq_obs.Json.t
val case_of_json : Rq_obs.Json.t -> (case, string) result
val case_summary : case -> string

val compile_case : case -> Logical.t

(** {2 Configuration} *)

type config = {
  iterations : int;            (** mutation steps; 0 = unbounded (soak) *)
  seed : int;
  time_budget : float option;  (** wall-clock seconds *)
  corpus_dir : string option;  (** persist/reload kept cases as [*.fuzz] *)
  baseline : bool;             (** also run the pure-random control *)
  late_after : int option;     (** require an unseen pair after this iteration *)
  self_test : bool;            (** plant an estimator perturbation; the run
                                   only passes if the fuzzer catches it *)
  self_test_rewrite : bool;    (** plant an unsound logical rewrite instead;
                                   the rewrite pass must catch it *)
  repro_file : string;
  workloads : workload list;
  catalog_seeds : int list;
  tpch_scale : float;
  star_rows : int;
  sample_size : int;
  reopt_threshold : float;
  seed_corpus : int;
  shrink_budget : int;         (** max case evaluations while shrinking *)
}

val default_config : config

(** {2 Probing (exposed for tests)} *)

type divergence = { pass : string; detail : string }

type probe = { coverage : string * string; divergence : divergence option }
(** [coverage] = (concatenated structural plan digests, tier-transition
    digest). *)

val probe_case :
  ?self_test:bool -> ?self_test_rewrite:bool -> config -> case -> (probe, string) result
(** Run one case through every pass.  [Error] means the case itself is
    invalid (the oracle rejected the query, or a mutation could not apply)
    — not a divergence. *)

val gen_case : Rq_math.Rng.t -> config -> case

val mutate_case : Rq_math.Rng.t -> level:int -> config -> case -> case
(** [level] 0 tweaks the query, 1 the fault set, 2 the data mutations. *)

(** {2 The loop} *)

type found = {
  f_divergence : divergence;
  f_case : case;               (** shrunk *)
  f_tables : int;
  f_iteration : int;
  f_repro_path : string;
  f_reproduced : bool;         (** the written repro file replays red *)
}

type result = {
  r_iterations : int;
  r_probes : int;
  r_corpus : int;
  r_pairs : int;               (** distinct (plan x tier) pairs, steered *)
  r_baseline_pairs : int option;
  r_last_new_pair : int;
  r_kept_by_level : int * int * int;
  r_found : found option;
  r_self_test : bool;
  r_ok : bool;
  r_seconds : float;
}

val run : ?log:(string -> unit) -> ?config:config -> unit -> result
(** [r_ok] means: no divergence (plus the [late_after] and [baseline]
    checks when configured) — or, under [self_test], that the planted
    perturbation was caught by the kernel pass, shrunk to at most three
    tables, and its repro file replays red.  Under [self_test_rewrite]
    (which takes precedence) the catch must come from the rewrite pass
    instead. *)

val replay : config -> string -> (case * probe * string, string) Stdlib.result
(** Re-run a [.fuzz-repro] file; returns the case, the fresh probe and the
    originally recorded failing pass. *)

val render : result -> string
val result_to_json : result -> Rq_obs.Json.t
