//! Behavioural models of the SafeMem paper's seven evaluated applications,
//! plus the driver that runs them under any [`MemTool`](safemem_core::MemTool).
//!
//! Table 1 of the paper lists the applications; each model in [`apps`]
//! reproduces the allocation/access behaviour that its row of Tables 3–5
//! and Figure 3 depends on. The [`driver`] module provides the run
//! configuration (normal vs buggy inputs, §5), deterministic seeding so
//! per-tool overhead comparisons are apples-to-apples, and ground-truth
//! bookkeeping for false-positive counting.
//!
//! # Example
//!
//! ```
//! use safemem_core::SafeMem;
//! use safemem_os::Os;
//! use safemem_workloads::{run_under, InputMode, RunConfig, Workload};
//! use safemem_workloads::apps::Gzip;
//!
//! let mut os = Os::with_defaults(1 << 25);
//! let mut tool = SafeMem::builder().build(&mut os);
//! let cfg = RunConfig { input: InputMode::Buggy, requests: Some(10), ..RunConfig::default() };
//! let result = run_under(&Gzip, &mut os, &mut tool, &cfg);
//! assert!(result.corruption_detected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod columnar;
pub mod driver;
pub mod registry;
pub mod synthetic;
pub mod trace;

pub use columnar::{ColumnarReplayer, ColumnarTrace, OpKind};
pub use driver::{
    group_of, run_under, AppSpec, BugClass, Ctx, FpPool, InputMode, RunConfig, RunResult, Workload,
};
pub use registry::{
    all_workloads, churn_workloads, cve_workloads, extension_workloads, workload_by_name,
};
pub use synthetic::{Synthetic, SyntheticParams};
pub use trace::{Recorder, Trace, TraceOp, MAX_SPAN_OVERRUN};
