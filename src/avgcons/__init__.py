"""Simulator for randomized average consensus on dynamic directed graphs.

Agents estimate the average of their private inputs by propagating
entrywise minima of replicated exponential samples through an
adversarially scheduled, per-round directed topology.  The package
provides the graph model, the protocol state machines (plain, quantized,
and deciding variants), a deterministic round engine, and a Monte Carlo
harness that checks the convergence, accuracy, quantization, and
decision guarantees empirically.
"""
from .graph import (
    DirectedGraph,
    DynamicSchedule,
    complete_graph,
    is_c_in_connected,
    is_complete,
    is_strongly_connected,
    loops_only,
    make_graph,
    product,
    ring_graph,
)
from .quantization import (
    admissible_interval,
    count_levels,
    dequantize_array,
    quantize,
    quantize_array,
)
from .sampling import (
    ConcentrationParams,
    ProtocolParams,
    RngStream,
    chernoff_bound,
    empirical_tail,
    params_r,
    params_rbar,
    params_rbard,
    sample_exponentials,
)
from .engine import (
    TrialConfig,
    TrialTrace,
    check_decision_spec,
    convergence_time,
    dump_trace_jsonl,
    message_bits,
    run_trial,
)
from .harness import ExperimentConfig, Summary, monte_carlo

__version__ = "0.1.0"
