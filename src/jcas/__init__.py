"""Half-duplex joint communications and sensing simulator.

Implements two coexistence waveforms that recover the full sensing range
of a dedicated radar while spending only 1/M of the resources on sensing:
random time-division chirps, and a chirp implanted into OFDM through a
code-domain spreading construction whose self-interference cancels in
simple analog-style processing.
"""

from .channel import ChannelConfig, Target, synthesize_rx, target_to_delay_doppler
from .comms import demodulate, despread, modulate, run_link
from .detect import Detection, EvalReport, evaluate, find_peaks
from .receiver import PatternTensor, RdMatrix, WindowKind, build_pattern, \
    delay_and_sum, extract_band, mix, peak_cleanup, process_sensing, \
    quantize, si_filter, signed_bin, slow_time_matched_filter, \
    solve_windows, validate_pattern
from .scheduler import Schedule, Scheme, grid_size, make_schedule, \
    occasion_grid_indices, unambiguous_band
from .util import SPEED_OF_LIGHT, substream
from .waveform import WaveformConfig, assemble_frame, assemble_symbol, \
    make_base_set, make_chirp, make_code_matrix, make_sensing_waveforms, \
    spread_and_assemble, transmit_constants, unitary_dft, unitary_idft

__version__ = "0.1.0"
