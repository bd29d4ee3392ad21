"""Online unsupervised EV-charging detection for streaming smart-meter data."""

from .checkpoint import load_model, save_model
from .data import (
    BaseProfile,
    MeterSeries,
    SeriesStats,
    SynthConfig,
    WindowBatch,
    fit_stats,
    normalize,
    read_meter_csv,
    sliding_windows,
    synth_household,
)
from .engine import (
    AttentionCache,
    DetectionEvent,
    EngineConfig,
    OnlineDetector,
    anomaly_score,
    format_event,
)
from .evaluation import Confusion, confusion, precision_recall_f1, roc_auc
from .memory import Reading, StreamState
from .model import ModelDims, ModelParams, mtr_forward
from .nn import AdamState, Hyper, Tensor, adam_step, grad_check
from .spot import GpdFit, SpotState, gpd_log_likelihood, gpd_quantile, grimshaw_fit, pot_calibrate, spot_step
from .training import TrainReport, train

__version__ = "0.1.0"
