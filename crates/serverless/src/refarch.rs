//! The SPEC-RG FaaS reference architecture (\[103\]) and the serverless
//! principles (\[101\]).
//!
//! The year-long survey of "nearly 50 open-source and closed-source
//! serverless(-like) platforms" culminated in "a FaaS reference
//! architecture ... that identifies the common processes and components
//! in these seemingly widely varying systems". Components and platform
//! mappings are data here, and the coverage check the paper ran against
//! real platforms becomes a test.

/// The three serverless principles of \[101\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerlessPrinciple {
    /// (1) Operational logic abstracted away from users.
    OperationAbstracted,
    /// (2) Fine-grained pay-per-use.
    GranularBilling,
    /// (3) Event-driven, elastically scaled execution.
    EventDrivenElastic,
}

impl ServerlessPrinciple {
    /// All three principles.
    pub fn all() -> [ServerlessPrinciple; 3] {
        [
            ServerlessPrinciple::OperationAbstracted,
            ServerlessPrinciple::GranularBilling,
            ServerlessPrinciple::EventDrivenElastic,
        ]
    }
}

/// The components of the FaaS reference architecture, grouped by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaasComponent {
    /// Receives events from sources (HTTP, queues, timers).
    EventSource,
    /// Routes invocations to function instances.
    FunctionRouter,
    /// Stores function code and metadata.
    FunctionRegistry,
    /// Creates/destroys instances; autoscaling decisions.
    InstanceManager,
    /// Executes function code in isolation.
    FunctionInstance,
    /// Orchestrates composite functions (workflows).
    WorkflowEngine,
    /// Provides ephemeral state between functions.
    EphemeralStorage,
    /// Underlying resource orchestration (e.g. Kubernetes).
    ResourceOrchestrator,
    /// Observability: logs, metrics, tracing.
    Monitoring,
}

impl FaasComponent {
    /// All components.
    pub fn all() -> [FaasComponent; 9] {
        [
            FaasComponent::EventSource,
            FaasComponent::FunctionRouter,
            FaasComponent::FunctionRegistry,
            FaasComponent::InstanceManager,
            FaasComponent::FunctionInstance,
            FaasComponent::WorkflowEngine,
            FaasComponent::EphemeralStorage,
            FaasComponent::ResourceOrchestrator,
            FaasComponent::Monitoring,
        ]
    }

    /// Whether every FaaS platform must have this component (core) or it
    /// is an ecosystem extension.
    pub fn core(&self) -> bool {
        !matches!(
            self,
            FaasComponent::WorkflowEngine | FaasComponent::EphemeralStorage
        )
    }
}

/// A surveyed platform and the components it realizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlatformMapping {
    /// Platform name.
    pub name: &'static str,
    /// Components present.
    pub components: Vec<FaasComponent>,
}

/// Representative platform mappings from the survey.
pub(crate) fn surveyed_platforms() -> Vec<PlatformMapping> {
    use FaasComponent::*;
    vec![
        PlatformMapping {
            name: "lambda-like",
            components: vec![
                EventSource,
                FunctionRouter,
                FunctionRegistry,
                InstanceManager,
                FunctionInstance,
                ResourceOrchestrator,
                Monitoring,
                WorkflowEngine, // Step-Functions analog
            ],
        },
        PlatformMapping {
            name: "fission-like",
            components: vec![
                EventSource,
                FunctionRouter,
                FunctionRegistry,
                InstanceManager,
                FunctionInstance,
                ResourceOrchestrator,
                Monitoring,
                WorkflowEngine, // Fission Workflows
            ],
        },
        PlatformMapping {
            name: "openwhisk-like",
            components: vec![
                EventSource,
                FunctionRouter,
                FunctionRegistry,
                InstanceManager,
                FunctionInstance,
                ResourceOrchestrator,
                Monitoring,
            ],
        },
        PlatformMapping {
            name: "minimal-edge-faas",
            components: vec![
                EventSource,
                FunctionRouter,
                FunctionRegistry,
                InstanceManager,
                FunctionInstance,
                ResourceOrchestrator,
                Monitoring,
            ],
        },
    ]
}

impl PlatformMapping {
    /// Core components this platform is missing (should be empty for a
    /// true FaaS platform — the reference architecture's claim).
    pub(crate) fn missing_core(&self) -> Vec<FaasComponent> {
        FaasComponent::all()
            .into_iter()
            .filter(|c| c.core() && !self.components.contains(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_principles() {
        assert_eq!(ServerlessPrinciple::all().len(), 3);
    }

    #[test]
    fn reference_architecture_covers_surveyed_platforms() {
        // The [103] claim: the common components appear in all the
        // seemingly widely varying systems.
        for p in surveyed_platforms() {
            assert!(
                p.missing_core().is_empty(),
                "{} missing core components: {:?}",
                p.name,
                p.missing_core()
            );
        }
    }

    #[test]
    fn extensions_are_optional() {
        let platforms = surveyed_platforms();
        let with_wf = platforms
            .iter()
            .filter(|p| p.components.contains(&FaasComponent::WorkflowEngine))
            .count();
        assert!(with_wf > 0 && with_wf < platforms.len());
        assert!(!FaasComponent::WorkflowEngine.core());
        assert!(FaasComponent::FunctionRouter.core());
    }
}
