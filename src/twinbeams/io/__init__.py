"""Run configuration, end-to-end pipelines, artifact export, and the CLI:
exactly the ``__all__`` of the submodules ``config``, ``exports`` and ``pipeline``."""

from . import config, exports, pipeline
from .config import *
from .exports import *
from .pipeline import *

__all__ = config.__all__ + exports.__all__ + pipeline.__all__
