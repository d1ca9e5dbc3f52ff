"""Channel substrate: i.i.d. stochastic channel-quality processes.

Section II of the paper models channel ``c_j`` at node ``v_i`` as an i.i.d.
stochastic process ``xi_{i,j}(t)`` with an unknown mean ``mu_{i,j} in [0, 1]``.
Section V instantiates 8 channel classes with data rates 150..1350 kbps, each
evolving as a distinct i.i.d. Gaussian process.

This subpackage provides the channel models, the paper's rate catalogue and
the :class:`ChannelState` container that holds the per-(node, channel) mean
matrix and draws rewards round by round.
"""

from repro.channels.models import ChannelModel, GaussianChannel
from repro.channels.catalog import PAPER_RATES_KBPS
from repro.channels.dynamics import AdversarialChannel, GilbertElliottChannel
from repro.channels.state import ChannelState

__all__ = [
    "ChannelModel",
    "GaussianChannel",
    "GilbertElliottChannel",
    "AdversarialChannel",
    "PAPER_RATES_KBPS",
    "ChannelState",
]
