//! The flow registry: named flows, each compiled once at registration.
//!
//! Compilation (validation, label indexing, op lowering) is the
//! expensive, shareable step of the compile-once / query-many model,
//! so [`FlowRegistry::register`] performs it up front and keeps the
//! outcome. A server owns its registry immutably once started, so a
//! registered program never goes stale: every request for a flow is
//! served the same `Arc<CompiledFlow>`, and a flow that fails to
//! compile answers every request with the same typed error.

use crate::protocol::{ErrorCode, ServeError};
use ipass_moe::{CompiledFlow, Flow, FlowError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named flow and its compilation outcome.
#[derive(Debug)]
struct Entry {
    name: String,
    program: Result<Arc<CompiledFlow>, FlowError>,
}

/// Registered flows with their compiled programs.
#[derive(Debug, Default)]
pub struct FlowRegistry {
    entries: Vec<Entry>,
    /// Lookups that found their flow.
    lookups: AtomicU64,
}

impl FlowRegistry {
    /// An empty registry.
    pub fn new() -> FlowRegistry {
        FlowRegistry::default()
    }

    /// Compile `flow` and register it under `name` (replaces an
    /// existing entry of the same name — last registration wins, like a
    /// patch slot write). A compile failure is kept and reported by
    /// [`FlowRegistry::compiled`].
    pub fn register(&mut self, name: impl Into<String>, flow: Flow) -> &mut FlowRegistry {
        let name = name.into();
        let program = flow.compiled().map(Arc::new);
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry { name, program });
        self
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The program compiled for `name` at registration, shared.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownFlow`] for unregistered names,
    /// [`ErrorCode::EngineError`] when compilation itself failed.
    pub fn compiled(&self, name: &str) -> Result<Arc<CompiledFlow>, ServeError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorCode::UnknownFlow,
                    format!("no flow named {name:?} is registered (try \"list\")"),
                )
            })?;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        entry
            .program
            .clone()
            .map_err(|e| ServeError::new(ErrorCode::EngineError, e.to_string()))
    }

    /// Lookups [`FlowRegistry::compiled`] answered from a registered
    /// entry (unknown names are not counted).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipass_moe::{CostCategory, Line, Part, Process, StepCost, YieldModel};
    use ipass_units::{Money, Probability};

    fn toy(name: &str, cost: f64) -> Flow {
        Flow::new(
            Line::builder(
                name,
                Part::new("c", CostCategory::Substrate)
                    .with_cost(StepCost::fixed(Money::new(cost))),
            )
            .process(Process::new("p").with_yield(YieldModel::flat(Probability::new(0.9).unwrap())))
            .build()
            .unwrap(),
        )
    }

    #[test]
    fn compiles_once_and_counts_hits() {
        let mut reg = FlowRegistry::new();
        reg.register("a", toy("a", 1.0))
            .register("b", toy("b", 2.0));
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert_eq!(reg.lookups(), 0);
        let first = reg.compiled("a").unwrap();
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&first, &reg.compiled("a").unwrap()));
        }
        assert_eq!(reg.lookups(), 4);
        // An unknown flow is not a lookup.
        assert!(reg.compiled("ghost").is_err());
        assert_eq!(reg.lookups(), 4);
    }

    #[test]
    fn reregistration_replaces_the_program() {
        let mut reg = FlowRegistry::new();
        reg.register("a", toy("a", 1.0));
        let old = reg.compiled("a").unwrap();
        reg.register("a", toy("a", 5.0));
        assert_eq!(reg.len(), 1);
        let new = reg.compiled("a").unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        let (before, after) = (old.analyze().unwrap(), new.analyze().unwrap());
        assert!(after.final_cost_per_shipped() > before.final_cost_per_shipped());
    }
}
